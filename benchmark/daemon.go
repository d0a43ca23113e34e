package main

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/mailboat"
	"repro/internal/mailboatd"
	"repro/internal/obs"
	"repro/internal/pop3"
	"repro/internal/smtp"
	"repro/internal/trace"
)

// daemonMirror: mailboatd configured the way cmd/mailboat runs with
// -admin -mirror -checksum (metrics registry, tracer, mirrored and
// checksummed store) behind the real SMTP and POP3 servers on
// loopback, one connection, 1,000 mailboxes pre-populated with 3
// messages and kept at 2 to 3, and one delivery per 64 operations, the
// rest pickup sessions. Protocol, adapter, envelope and mirror work
// dominate; the sync barriers are off for the same reason as on
// lib-zipf-8k.
var daemonMirror = &mailSpec{
	name:         "daemon-mirror-1k",
	users:        1000,
	round:        "d" + strings.Repeat("p", 63),
	prefill:      3,
	warmup:       2,
	tracedRounds: 50,
	minCopy:      2,
	open:         openDaemon,
}

// daemonStore is a mailboatd adapter served over loopback SMTP/POP3.
type daemonStore struct {
	root, mirror string
	opts         mailboatd.Options
	lc           *layerClock

	a                  *mailboatd.Adapter
	ss                 *smtp.Server
	ps                 *pop3.Server
	gen                int // bumps at every reboot; connections redial
	smtpAddr, pop3Addr string
}

func openDaemon(c *config, s *mailSpec, lc *layerClock) (mailStore, error) {
	dir, err := c.storeDir(s.name)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	tracer := trace.New(0, 0)
	tracer.Stages = trace.NewStageMetrics(reg)
	st := &daemonStore{
		root:   filepath.Join(dir, "r0"),
		mirror: filepath.Join(dir, "r1"),
		lc:     lc,
	}
	st.opts = mailboatd.Options{
		Users:      s.users,
		Seed:       c.seed,
		Metrics:    reg,
		MirrorRoot: st.mirror,
		Checksum:   true,
		Tracer:     tracer,
	}
	if err := st.boot(); err != nil {
		return nil, err
	}
	return st, nil
}

// boot opens the store (running boot recovery and the boot scrub) and
// starts both protocol servers.
func (s *daemonStore) boot() error {
	a, err := mailboatd.NewWithOptions(s.root, s.opts)
	if err != nil {
		return err
	}
	s.a = a
	var be interface {
		smtp.Deliverer
		pop3.Maildrop
	} = a
	if s.lc != nil {
		be = &timedBackend{a: a, lc: s.lc}
	}
	s.ss = smtp.NewServer(be, s.opts.Users)
	s.ss.Metrics = smtp.NewMetrics(s.opts.Metrics)
	s.ss.Tracer = s.opts.Tracer
	s.ps = pop3.NewServer(be, s.opts.Users)
	s.ps.Metrics = pop3.NewMetrics(s.opts.Metrics)
	s.ps.Tracer = s.opts.Tracer
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sl.Close()
		return err
	}
	s.smtpAddr, s.pop3Addr = sl.Addr().String(), pl.Addr().String()
	go s.ss.Serve(sl)
	go s.ps.Serve(pl)
	s.gen++
	return nil
}

func (s *daemonStore) close() {
	s.ss.Close()
	s.ps.Close()
	s.a.Close()
}

func (s *daemonStore) reboot() error {
	s.close()
	// A fresh registry and tracer, as a restarted process would have.
	s.opts.Metrics = obs.NewRegistry()
	s.opts.Tracer = trace.New(0, 0)
	s.opts.Tracer.Stages = trace.NewStageMetrics(s.opts.Metrics)
	return s.boot()
}

func (s *daemonStore) roots() []string { return []string{filepath.Dir(s.root)} }

// readBox reads user's mailbox through the adapter: the files are
// checksum envelopes, never plain.
func (s *daemonStore) readBox(user uint64, _ bool) ([]string, error) {
	msgs, err := s.a.Pickup(user)
	s.a.Unlock(user)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(msgs))
	for i, m := range msgs {
		out[i] = m.Contents
	}
	return out, nil
}

func (s *daemonStore) conn(int) (mailConn, error) { return &daemonConn{s: s}, nil }

// daemonConn is one client: a persistent SMTP session for deliveries
// and a fresh POP3 session per pickup.
type daemonConn struct {
	s    *daemonStore
	gen  int
	smtp *wire
	pop  *wire
}

const wireTimeout = 30 * time.Second

// wire is one line-oriented protocol connection.
type wire struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dial(addr string) (*wire, error) {
	c, err := net.DialTimeout("tcp", addr, wireTimeout)
	if err != nil {
		return nil, err
	}
	c.SetDeadline(time.Now().Add(wireTimeout))
	return &wire{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}, nil
}

func (w *wire) line() (string, error) {
	l, err := w.r.ReadString('\n')
	return strings.TrimRight(l, "\r\n"), err
}

// cmd sends one command line (empty: none) and reads one reply line,
// which must start with want.
func (w *wire) cmd(line, want string) (string, error) {
	if line != "" {
		w.c.SetDeadline(time.Now().Add(wireTimeout))
		w.w.WriteString(line)
		w.w.WriteString("\r\n")
		if err := w.w.Flush(); err != nil {
			return "", err
		}
	}
	reply, err := w.line()
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(reply, want) {
		return reply, fmt.Errorf("%q answered %q", line, reply)
	}
	return reply, nil
}

func (d *daemonConn) deliver(user uint64, body []byte) error {
	if d.smtp == nil || d.gen != d.s.gen {
		if d.smtp != nil {
			d.smtp.c.Close()
		}
		w, err := dial(d.s.smtpAddr)
		if err != nil {
			return err
		}
		d.smtp, d.gen = w, d.s.gen
		if _, err := w.cmd("", "220"); err != nil {
			return err
		}
		if _, err := w.cmd("HELO bench", "250"); err != nil {
			return err
		}
	}
	w := d.smtp
	if _, err := w.cmd("MAIL FROM:<bench@localhost>", "250"); err != nil {
		return err
	}
	if _, err := w.cmd("RCPT TO:<"+mailboat.UserDir(user)+"@localhost>", "250"); err != nil {
		return err
	}
	if _, err := w.cmd("DATA", "354"); err != nil {
		return err
	}
	for _, l := range strings.SplitAfter(string(body), "\n") {
		if l == "" {
			continue
		}
		w.w.WriteString(strings.TrimSuffix(l, "\n"))
		w.w.WriteString("\r\n")
	}
	_, err := w.cmd(".", "250")
	return err
}

func (d *daemonConn) open(user uint64) ([]message, error) {
	w, err := dial(d.s.pop3Addr)
	if err != nil {
		return nil, err
	}
	d.pop = w
	if _, err := w.cmd("", "+OK"); err != nil {
		return nil, d.abort(err)
	}
	if _, err := w.cmd("USER "+mailboat.UserDir(user), "+OK"); err != nil {
		return nil, d.abort(err)
	}
	reply, err := w.cmd("PASS x", "+OK")
	if err != nil {
		return nil, d.abort(err)
	}
	// "+OK maildrop has N messages"
	f := strings.Fields(reply)
	if len(f) < 4 {
		return nil, d.abort(fmt.Errorf("PASS answered %q", reply))
	}
	n, err := strconv.Atoi(f[3])
	if err != nil {
		return nil, d.abort(fmt.Errorf("PASS answered %q", reply))
	}
	msgs := make([]message, n)
	for i := range msgs {
		id := strconv.Itoa(i + 1)
		if _, err := w.cmd("RETR "+id, "+OK"); err != nil {
			return nil, d.abort(err)
		}
		var lines []string
		for {
			l, err := w.line()
			if err != nil {
				return nil, d.abort(err)
			}
			if l == "." {
				break
			}
			lines = append(lines, strings.TrimPrefix(l, "."))
		}
		msgs[i] = message{id: id, body: strings.Join(lines, "\n")}
	}
	return msgs, nil
}

func (d *daemonConn) abort(err error) error {
	d.pop.c.Close()
	d.pop = nil
	return err
}

func (d *daemonConn) finish(_ uint64, ids []string) error {
	w := d.pop
	d.pop = nil
	defer w.c.Close()
	for _, id := range ids {
		if _, err := w.cmd("DELE "+id, "+OK"); err != nil {
			return err
		}
	}
	_, err := w.cmd("QUIT", "+OK")
	return err
}

func (d *daemonConn) close() {
	if d.smtp != nil {
		d.smtp.cmd("QUIT", "221")
		d.smtp.c.Close()
	}
	if d.pop != nil {
		d.pop.c.Close()
	}
}

// timedBackend times the protocol servers' calls into the adapter and
// charges them to the client that owns the mailbox. It forwards the
// servers' root spans, so the daemon's own tracing runs as shipped.
type timedBackend struct {
	a  *mailboatd.Adapter
	lc *layerClock
}

func (b *timedBackend) charge(user uint64, op adOp, t0 time.Time) {
	kind := kPickup
	if op == adDeliver {
		kind = kDeliver
	}
	b.lc.adapter(int(user%clients), op, kind, time.Since(t0))
}

func (b *timedBackend) Deliver(user uint64, msg []byte) error {
	t0 := time.Now()
	err := b.a.Deliver(user, msg)
	b.charge(user, adDeliver, t0)
	return err
}

func (b *timedBackend) DeliverTraced(sp *trace.Span, user uint64, msg []byte) error {
	t0 := time.Now()
	err := b.a.DeliverTraced(sp, user, msg)
	b.charge(user, adDeliver, t0)
	return err
}

func (b *timedBackend) Pickup(user uint64) ([]mailboat.Message, error) {
	t0 := time.Now()
	m, err := b.a.Pickup(user)
	b.charge(user, adPickup, t0)
	return m, err
}

func (b *timedBackend) PickupTraced(sp *trace.Span, user uint64) ([]mailboat.Message, error) {
	t0 := time.Now()
	m, err := b.a.PickupTraced(sp, user)
	b.charge(user, adPickup, t0)
	return m, err
}

func (b *timedBackend) Delete(user uint64, id string) error {
	t0 := time.Now()
	err := b.a.Delete(user, id)
	b.charge(user, adDelete, t0)
	return err
}

func (b *timedBackend) DeleteTraced(sp *trace.Span, user uint64, id string) error {
	t0 := time.Now()
	err := b.a.DeleteTraced(sp, user, id)
	b.charge(user, adDelete, t0)
	return err
}

func (b *timedBackend) Unlock(user uint64) {
	t0 := time.Now()
	b.a.Unlock(user)
	b.charge(user, adUnlock, t0)
}
