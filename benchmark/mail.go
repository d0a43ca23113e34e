package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// message is one message as a client reads it: the id it deletes by
// and the body it verifies.
type message struct{ id, body string }

// mailConn is one closed-loop client's connection to the store under
// test: direct library calls or an SMTP/POP3 session pair.
type mailConn interface {
	deliver(user uint64, body []byte) error
	// open starts a pickup session: it reads every message in the
	// mailbox and holds the mailbox until finish.
	open(user uint64) ([]message, error)
	// finish deletes ids and ends the session.
	finish(user uint64, ids []string) error
	close()
}

// mailStore is one store under test.
type mailStore interface {
	conn(client int) (mailConn, error)
	// readBox reads user's mailbox: straight from its files when raw and
	// the store keeps plain files, otherwise through the store's own
	// read path.
	readBox(user uint64, raw bool) ([]string, error)
	// reboot drops every handle and recovers the store from disk, the
	// restart an operator waits through.
	reboot() error
	// roots are the directories holding the store's files.
	roots() []string
	close()
}

// mailSpec is a mail workload's input make-up.
type mailSpec struct {
	name         string
	users        uint64
	zipfS        float64 // > 1 skews mailbox draws; 0 = uniform
	round        string  // one client round: 'd' = delivery, 'p' = pickup session
	prefill      int     // messages per mailbox delivered during set-up
	warmup       int     // rounds per client during set-up
	tracedRounds int     // rounds per client in each leg of the traced run
	minCopy      float64 // least store bytes per live message byte
	open         func(c *config, spec *mailSpec, layers *layerClock) (mailStore, error)
}

const (
	// clients is the number of closed-loop clients on a mail workload.
	// One: with both CPUs busy, the same work's wall time spread far
	// wider from run to run (README.md).
	clients = 1
	// keepNewest is how many messages a pickup session leaves behind.
	keepNewest = 2
)

// client is one closed-loop client's state across a run.
type client struct {
	idx  int
	in   *inputs
	led  *ledger
	conn mailConn

	lat    []float64 // latency (ns) of every completed operation in the timed phase
	failed int
	err    error // first correctness failure

	// Traced-run accounting.
	opNS      [2]int64 // time inside store calls, by kind (0 deliver, 1 pickup)
	ops       [2]int64
	ownNS     int64 // the benchmark's own work: generating, verifying, book-keeping
	wallNS    int64
	delivered int64 // acknowledged message bytes
	msgsRead  int64 // messages the pickup sessions read and verified
	bytesRead int64 // their bytes
	deleted   int64 // acknowledged deletions
}

const (
	kDeliver = 0
	kPickup  = 1
)

// runRounds drives c until more() says stop, one whole round at a time.
func (s *mailSpec) runRounds(c *client, more func(rounds int) bool, record, traced bool, lc *layerClock) {
	start := time.Now()
	for r := 0; more(r) && c.err == nil; r++ {
		for _, k := range s.round {
			if k == 'd' {
				s.deliverOp(c, record, traced, lc)
			} else {
				s.pickupOp(c, record, traced, lc)
			}
			if c.err != nil {
				break
			}
		}
	}
	if traced {
		c.wallNS += int64(time.Since(start))
	}
}

func (s *mailSpec) deliverOp(c *client, record, traced bool, lc *layerClock) {
	var o0 time.Time
	if traced {
		o0 = time.Now()
	}
	user := c.in.user()
	uid, body := c.in.body()
	lc.enter(c.idx, kDeliver)
	t0 := time.Now()
	err := c.conn.deliver(user, body)
	d := time.Since(t0)
	lc.exit(c.idx)
	if err != nil {
		c.failed++
		return
	}
	if record {
		c.lat = append(c.lat, float64(d))
	}
	c.led.acked(user, uid, body)
	if traced {
		c.account(kDeliver, d, o0)
		c.delivered += int64(len(body))
	}
}

func (s *mailSpec) pickupOp(c *client, record, traced bool, lc *layerClock) {
	var o0 time.Time
	if traced {
		o0 = time.Now()
	}
	user := c.in.user()
	lc.enter(c.idx, kPickup)
	t0 := time.Now()
	msgs, err := c.conn.open(user)
	t1 := time.Now()
	lc.exit(c.idx)
	if err != nil {
		c.failed++
		return
	}
	bodies := make([]string, len(msgs))
	for i, m := range msgs {
		bodies[i] = m.body
	}
	uids, cerr := c.led.check(user, bodies)
	if cerr != nil {
		c.err = cerr
		return
	}
	// Delete the oldest messages (lowest ids), keeping keepNewest.
	order := make([]int, len(msgs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return uids[order[a]] < uids[order[b]] })
	var ids []string
	var del []uint64
	for _, i := range order[:max(0, len(order)-keepNewest)] {
		ids = append(ids, msgs[i].id)
		del = append(del, uids[i])
	}
	lc.enter(c.idx, kPickup)
	t2 := time.Now()
	err = c.conn.finish(user, ids)
	t3 := time.Now()
	lc.exit(c.idx)
	d := t1.Sub(t0) + t3.Sub(t2)
	if err != nil {
		c.failed++
		// The session ended without acknowledging its deletions; the
		// mailbox must still hold them.
		return
	}
	if record {
		c.lat = append(c.lat, float64(d))
	}
	for _, uid := range del {
		c.led.removed(user, uid)
	}
	if traced {
		c.msgsRead += int64(len(bodies))
		for _, b := range bodies {
			c.bytesRead += int64(len(b))
		}
		c.deleted += int64(len(ids))
		c.account(kPickup, d, o0)
	}
}

// account charges one traced operation: d inside the store, the rest of
// the time since o0 to the benchmark itself.
func (c *client) account(kind int, d time.Duration, o0 time.Time) {
	c.opNS[kind] += int64(d)
	c.ops[kind]++
	c.ownNS += int64(time.Since(o0) - d)
}

// install builds a fresh store and pre-populates it. This one-time
// installation is not part of setup_s: creating files and directories
// in the checkout's file system slows steadily during back-to-back runs
// (README.md), so timing it would track the host, not the program.
func (s *mailSpec) install(c *config, lc *layerClock) (mailStore, []*client, error) {
	st, err := s.open(c, s, lc)
	if err != nil {
		return nil, nil, err
	}
	n := clients
	cl := make([]*client, n)
	for i := range cl {
		conn, err := st.conn(i)
		if err != nil {
			st.close()
			return nil, nil, err
		}
		cl[i] = &client{idx: i, in: newInputs(c.seed, i, n, s.users, s.zipfS), led: newLedger(), conn: conn}
	}
	if s.prefill > 0 {
		if err := s.fill(st, cl); err != nil {
			closeAll(st, cl)
			return nil, nil, err
		}
	}
	return st, cl, nil
}

// boot is the timed set-up: restart the installed store (open its
// layout, boot recovery, and on the daemon the boot scrub), then warm
// it up.
func (s *mailSpec) boot(st mailStore, cl []*client) error {
	if err := st.reboot(); err != nil {
		return err
	}
	s.parallel(cl, func(cc *client) {
		s.runRounds(cc, func(r int) bool { return r < s.warmup }, false, false, nil)
	})
	return firstErr(cl)
}

// setUp installs a store and boots it once.
func (s *mailSpec) setUp(c *config, lc *layerClock) (mailStore, []*client, error) {
	st, cl, err := s.install(c, lc)
	if err != nil {
		return nil, nil, err
	}
	settle()
	if err := s.boot(st, cl); err != nil {
		closeAll(st, cl)
		return nil, nil, err
	}
	return st, cl, nil
}

// fill delivers s.prefill messages to every mailbox, each client to its own.
func (s *mailSpec) fill(st mailStore, cl []*client) error {
	s.parallel(cl, func(cc *client) {
		for u := uint64(cc.idx); u < s.users; u += uint64(len(cl)) {
			for i := 0; i < s.prefill && cc.err == nil; i++ {
				uid, body := cc.in.body()
				if err := cc.conn.deliver(u, body); err != nil {
					cc.err = fmt.Errorf("pre-populating mailbox %d: %v", u, err)
					return
				}
				cc.led.acked(u, uid, body)
			}
		}
	})
	return firstErr(cl)
}

func (s *mailSpec) parallel(cl []*client, f func(*client)) {
	var wg sync.WaitGroup
	for _, cc := range cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(cc)
		}()
	}
	wg.Wait()
}

func firstErr(cl []*client) error {
	for _, cc := range cl {
		if cc.err != nil {
			return cc.err
		}
	}
	return nil
}

func closeAll(st mailStore, cl []*client) {
	for _, cc := range cl {
		cc.conn.close()
	}
	st.close()
	for _, r := range st.roots() {
		os.RemoveAll(r)
	}
}

// run is the untraced run: timed set-ups, then a timed phase of whole
// rounds lasting at least c.seconds, then the audits and the reboot.
func (s *mailSpec) run(c *config) *outcome {
	o := newOutcome()
	st, cl, err := s.install(c, nil)
	if err != nil {
		o.fail("installing the store: %v", err)
		return o
	}
	defer closeAll(st, cl)
	var setups []float64
	for i := 0; i < nSetups; i++ {
		settle()
		t0 := time.Now()
		if err := s.boot(st, cl); err != nil {
			o.fail("set-up: %v", err)
			return o
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.set("setup_s", median(setups), len(setups))
	o.note("storage %s on %s", st.roots()[0], medium(st.roots()[0]))
	settle()

	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	cpu0 := cpuTime()
	t0 := time.Now()
	s.parallel(cl, func(cc *client) {
		s.runRounds(cc, func(int) bool { return time.Now().Before(deadline) }, true, false, nil)
	})
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0

	var lat []float64
	for _, cc := range cl {
		lat = append(lat, cc.lat...)
		o.failed += cc.failed
		if cc.err != nil {
			o.fail("%v", cc.err)
		}
	}
	// Latency, throughput and CPU are over completed operations only;
	// report fails the run when any operation failed.
	o.attempted = len(lat) + o.failed
	if len(lat) == 0 {
		o.fail("no operation completed")
		return o
	}
	sort.Float64s(lat)
	o.set("ops_per_s", float64(len(lat))/wall.Seconds(), len(lat))
	o.set("p50_us", quantile(lat, 0.50)/1e3, len(lat))
	o.set("p90_us", quantile(lat, 0.90)/1e3, len(lat))
	o.set("cpu_us_per_op", cpu.Seconds()*1e6/float64(len(lat)), len(lat))
	s.verify(o, st, cl)
	return o
}

// verify audits the store against the merged ledger, measures its
// space, reboots it and audits again. It returns the reboot time.
func (s *mailSpec) verify(o *outcome, st mailStore, cl []*client) time.Duration {
	led := newLedger()
	for _, cc := range cl {
		led.merge(cc.led)
	}
	s.audit(o, "after the timed phase", st, led, true)
	if led.bytes > 0 {
		b, err := apparentBytes(st.roots())
		if err != nil {
			o.fail("measuring the store: %v", err)
		}
		ratio := float64(b) / float64(led.bytes)
		o.set("store.bytes_per_msg_byte", ratio, 0)
		if ratio < s.minCopy {
			o.fail("store holds %.3f bytes per live message byte, want at least %g", ratio, s.minCopy)
		}
	}
	t0 := time.Now()
	if err := st.reboot(); err != nil {
		o.fail("reboot: %v", err)
		return 0
	}
	d := time.Since(t0)
	o.set("store.recover_s", d.Seconds(), 0)
	s.audit(o, "after the reboot", st, led, false)
	return d
}

// audit reads every mailbox and compares it with the ledger.
func (s *mailSpec) audit(o *outcome, when string, st mailStore, led *ledger, raw bool) {
	for u := uint64(0); u < s.users; u++ {
		bodies, err := st.readBox(u, raw)
		if err == nil {
			_, err = led.check(u, bodies)
		}
		if err != nil {
			o.fail("audit %s: %v", when, err)
			return
		}
	}
}

// apparentBytes sums the sizes of every file under roots.
func apparentBytes(roots []string) (int64, error) {
	var n int64
	for _, r := range roots {
		err := filepath.WalkDir(r, func(_ string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// traced is the traced run: the same fixed-length phase four times from
// the same seed on fresh stores, untraced, traced, traced, untraced, so
// drift in the host falls evenly on both sides of the tracing overhead.
// The first traced leg gives the layer metrics; the second must repeat
// its counts exactly.
func (s *mailSpec) traced(c *config) *outcome {
	o := newOutcome()
	var plainS, tracedS float64
	var first *outcome
	for _, on := range []bool{false, true, true, false} {
		var lc *layerClock
		if on {
			lc = newLayerClock(clients)
		}
		leg, cl, wall := s.tracedLeg(c, lc)
		if !on {
			plainS += wall
			o.errs = append(o.errs, leg.errs...)
			continue
		}
		tracedS += wall
		if cl != nil {
			lc.report(leg, cl)
		}
		o.errs = append(o.errs, leg.errs...)
		if first == nil {
			first = leg
			continue
		}
		for _, m := range perLayer {
			if m.unit == "count" && leg.metrics[m.name] != first.metrics[m.name] {
				o.fail("%s differs between two traced legs from one seed: %g then %g", m.name, first.metrics[m.name], leg.metrics[m.name])
			}
		}
	}
	for k, v := range first.metrics {
		o.metrics[k] = v
	}
	for k, v := range first.samples {
		o.samples[k] = v
	}
	o.notes = first.notes
	o.attempted, o.failed = first.attempted, first.failed
	o.set("trace.slowdown", tracedS/plainS, 0)
	return o
}

// tracedLeg runs s.tracedRounds rounds per client on a fresh store,
// timing every layer boundary when lc is not nil.
func (s *mailSpec) tracedLeg(c *config, lc *layerClock) (*outcome, []*client, float64) {
	o := newOutcome()
	settle()
	st, cl, err := s.setUp(c, lc)
	if err != nil {
		o.fail("set-up: %v", err)
		return o, nil, 0
	}
	defer closeAll(st, cl)
	settle()
	lc.reset()
	t0 := time.Now()
	s.parallel(cl, func(cc *client) {
		s.runRounds(cc, func(r int) bool { return r < s.tracedRounds }, false, lc != nil, lc)
	})
	wall := time.Since(t0).Seconds()
	for _, cc := range cl {
		o.attempted += int(cc.ops[0]+cc.ops[1]) + cc.failed
		o.failed += cc.failed
		if cc.err != nil {
			o.fail("%v", cc.err)
		}
	}
	if lc != nil {
		lc.startRecovery()
	}
	s.verify(o, st, cl)
	return o, cl, wall
}

// settle flushes the file systems, so that write-back and
// journal work left by earlier set-ups, runs or deletions is not charged
// to the next timed region.
func settle() { syscall.Sync() }

// cpuTime is the process's user+system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the exact quantile of sorted values, interpolating
// between the two closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
