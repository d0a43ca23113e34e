package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/gfs"
	"repro/internal/mailboat"
)

// small is lib-zipf-8k's input make-up on fewer mailboxes and rounds,
// so the controls run in seconds.
func small(t *testing.T) (*mailSpec, *config) {
	s := *libZipf
	s.users = 64
	s.warmup = 2
	s.tracedRounds = 20
	return &s, &config{root: t.TempDir(), seed: 7, seconds: 1}
}

// populated returns a set-up store whose ledger holds messages.
func populated(t *testing.T) (*mailSpec, *libStore, *client) {
	s, c := small(t)
	st, cl, err := s.setUp(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeAll(st, cl) })
	s.runRounds(cl[0], func(r int) bool { return r < 10 }, false, false, nil)
	if cl[0].err != nil {
		t.Fatal(cl[0].err)
	}
	return s, st.(*libStore), cl[0]
}

func auditErrs(s *mailSpec, st mailStore, led *ledger) []string {
	o := newOutcome()
	s.audit(o, "from the files", st, led, true)
	s.audit(o, "through the library", st, led, false)
	return o.errs
}

// someMessage returns a mailbox file the ledger says is live.
func someMessage(t *testing.T, st *libStore, led *ledger) (user uint64, path string) {
	for u, box := range led.boxes {
		if len(box) == 0 {
			continue
		}
		dir := filepath.Join(st.dir, mailboat.UserDir(u))
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) == 0 {
			t.Fatalf("mailbox %d: ledger holds %d messages, directory holds %d (%v)", u, len(box), len(ents), err)
		}
		return u, filepath.Join(dir, ents[0].Name())
	}
	t.Fatal("no live message in the ledger")
	return 0, ""
}

func TestAuditPassesOnUntouchedStore(t *testing.T) {
	s, st, cc := populated(t)
	if errs := auditErrs(s, st, cc.led); len(errs) > 0 {
		t.Fatalf("audit of an untouched store failed: %v", errs)
	}
}

func TestAuditCatchesAcknowledgedMessageRemoved(t *testing.T) {
	s, st, cc := populated(t)
	_, path := someMessage(t, st, cc.led)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	errs := auditErrs(s, st, cc.led)
	if len(errs) == 0 || !strings.Contains(errs[0], "missing") {
		t.Fatalf("audit after removing an acknowledged message: %v, want a missing-message failure", errs)
	}
}

func TestAuditCatchesDeletedMessageRecreated(t *testing.T) {
	s, st, cc := populated(t)
	user, path := someMessage(t, st, cc.led)
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	uid, _, err := parseBody(string(body))
	if err != nil {
		t.Fatal(err)
	}
	// Delete it the acknowledged way, then put it back behind the store.
	conn := &libConn{s: st, t: st.ths[0]}
	if _, err := conn.open(user); err != nil {
		t.Fatal(err)
	}
	if err := conn.finish(user, []string{filepath.Base(path)}); err != nil {
		t.Fatal(err)
	}
	cc.led.removed(user, uid)
	if errs := auditErrs(s, st, cc.led); len(errs) > 0 {
		t.Fatalf("audit after an acknowledged delete: %v", errs)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	errs := auditErrs(s, st, cc.led)
	if len(errs) == 0 || !strings.Contains(errs[0], "is back") {
		t.Fatalf("audit after re-creating a deleted message: %v, want a resurrection failure", errs)
	}
}

func TestBodyCheckCatchesOneFlippedByte(t *testing.T) {
	in := newInputs(3, 0, 1, 8, 0)
	led := newLedger()
	uid, body := in.body()
	led.acked(5, uid, body)
	if _, err := led.check(5, []string{string(body)}); err != nil {
		t.Fatalf("intact body rejected: %v", err)
	}
	for i := range body {
		flipped := append([]byte(nil), body...)
		flipped[i] ^= 0x01
		if _, err := led.check(5, []string{string(flipped)}); err == nil {
			t.Fatalf("flipping byte %d of %d went unnoticed", i, len(body))
		}
	}
}

func TestCheckerControlsFailWhenBugGoesFree(t *testing.T) {
	es, err := heavyEntries()
	if err != nil {
		t.Fatal(err)
	}
	var bug = es[len(es)-1]
	if !bug.WantViolation {
		t.Fatalf("%s is not a seeded-bug control", bug.Scenario.Name)
	}
	rep := explore.Run(bug.Scenario, bug.Opts)
	if err := verdict(bug, rep); err != nil {
		t.Fatalf("real control: %v", err)
	}
	// Unconvicted: the report carries no counterexample.
	if err := verdict(bug, &explore.Report{Scenario: bug.Scenario.Name, Executions: 5}); err == nil {
		t.Fatal("a seeded bug that went unconvicted passed the control")
	}
	// Convicted, but the counterexample does not replay.
	bogus := *rep
	cx := *rep.Counterexample
	cx.Choices = nil
	bogus.Counterexample = &cx
	if err := verdict(bug, &bogus); err == nil || !strings.Contains(err.Error(), "does not replay") {
		t.Fatalf("a counterexample that does not replay passed the control: %v", err)
	}
}

func TestTracedCountsRepeatForOneSeed(t *testing.T) {
	s, c := small(t)
	a := s.traced(c)
	b := s.traced(c)
	if len(a.errs) > 0 || len(b.errs) > 0 {
		t.Fatalf("traced runs failed: %v %v", a.errs, b.errs)
	}
	n := 0
	for _, m := range perLayer {
		if m.unit != "count" {
			continue
		}
		if a.metrics[m.name] != b.metrics[m.name] {
			t.Errorf("%s: %g then %g", m.name, a.metrics[m.name], b.metrics[m.name])
		}
		if a.metrics[m.name] != 0 {
			n++
		}
	}
	if n < 4 {
		t.Fatalf("only %d per-layer counts were measured", n)
	}
}

// refusingStore is a library store whose every delivery fails cleanly:
// nothing reaches the mailbox, so the ledger audit still holds.
type refusingStore struct{ mailStore }

func (r refusingStore) conn(i int) (mailConn, error) {
	c, err := r.mailStore.conn(i)
	return refusingConn{c}, err
}

type refusingConn struct{ mailConn }

func (refusingConn) deliver(uint64, []byte) error { return errors.New("delivery refused") }

func TestRunFailsWhenAnOperationFails(t *testing.T) {
	s, c := small(t)
	s.open = func(c *config, s *mailSpec, lc *layerClock) (mailStore, error) {
		st, err := openLib(c, s, lc)
		if err != nil {
			return nil, err
		}
		return refusingStore{st}, nil
	}
	o := s.run(c)
	if o.failed == 0 {
		t.Fatal("no delivery failed")
	}
	if len(o.errs) > 0 {
		t.Fatalf("the audit should hold on a store that refused cleanly: %v", o.errs)
	}
	if n := o.samples["p50_us"]; n != o.attempted-o.failed {
		t.Fatalf("latency taken over %d operations; %d attempted, %d failed", n, o.attempted, o.failed)
	}
	if report(o, endToEnd) == 0 {
		t.Fatal("a run with failed operations reported success")
	}
}

// untimedReadStore reads message files past the timing wrapper after
// every reboot, as a layer that bypassed the wrapped interface would.
type untimedReadStore struct{ *libStore }

func (u untimedReadStore) reboot() error {
	if err := u.libStore.reboot(); err != nil {
		return err
	}
	u.mb = u.mb.WithSystem(untimedReads{System: u.sys(u.os), raw: u.os})
	return nil
}

type untimedReads struct {
	gfs.System
	raw gfs.System
}

func (r untimedReads) ReadAt(t gfs.T, fd gfs.FD, off, n uint64) []byte {
	return r.raw.ReadAt(t, fd, off, n)
}

func TestLayerCountsCatchAnUntimedCall(t *testing.T) {
	s, c := small(t)
	s.open = func(c *config, s *mailSpec, lc *layerClock) (mailStore, error) {
		st, err := openLib(c, s, lc)
		if err != nil {
			return nil, err
		}
		return untimedReadStore{st.(*libStore)}, nil
	}
	o := s.traced(c)
	found := false
	for _, e := range o.errs {
		found = found || strings.Contains(e, "bytes read in pickup sessions")
	}
	if !found {
		t.Fatalf("reads past the timing wrapper went unnoticed: %v", o.errs)
	}
}
