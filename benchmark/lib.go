package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/gfs"
	"repro/internal/mailboat"
)

// libZipf: direct mailboat calls on gfs.OS, one client, 8,192
// mailboxes (twice gfs.OS's 4,096 cached directory handles) drawn with
// zipf skew, one delivery per 200 operations and the rest pickup
// sessions. The cost is mailboat plus gfs.OS per request with the
// handle cache churning. The store lives inside the checkout, so the
// sync barriers are off to keep fsync off the critical path as tmpfs
// would; README.md says why deliveries are rare and why the mailbox
// count is not 100,000.
var libZipf = &mailSpec{
	name:         "lib-zipf-8k",
	users:        8192,
	zipfS:        1.1,
	round:        "d" + strings.Repeat("p", 199),
	warmup:       50,
	tracedRounds: 100,
	minCopy:      1,
	open:         openLib,
}

// libStore is a mailboat library over gfs.OS, optionally with every
// gfs.System call timed.
type libStore struct {
	dir   string
	cfg   mailboat.Config
	os    *gfs.OS
	mb    *mailboat.Mailboat
	ths   []*gfs.Native // one per client, then the recovery thread
	audit *gfs.Native
	lc    *layerClock
}

func openLib(c *config, s *mailSpec, lc *layerClock) (mailStore, error) {
	dir, err := c.storeDir(s.name)
	if err != nil {
		return nil, err
	}
	st := &libStore{
		dir: dir,
		// The sync barriers stay off (the zero Config): see libZipf.
		cfg:   mailboat.Config{Users: s.users, RandBound: 1 << 62},
		lc:    lc,
		audit: gfs.NewNative(c.seed - 1),
	}
	for i := 0; i <= clients; i++ {
		st.ths = append(st.ths, gfs.NewNative(c.seed*7919+int64(i)))
	}
	st.os, err = gfs.NewOS(dir, mailboat.Dirs(st.cfg))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	st.mb = mailboat.Init(st.ths[0], nil, st.sys(st.os), st.cfg)
	return st, nil
}

// sys is the gfs.System mailboat sees: the OS itself, or the OS behind
// the timing wrapper in a traced run.
func (s *libStore) sys(o *gfs.OS) gfs.System {
	if s.lc == nil {
		return o
	}
	byT := make(map[gfs.T]int, len(s.ths))
	for i, t := range s.ths {
		byT[t] = i
	}
	return &timedFS{inner: o, byT: byT, lc: s.lc}
}

func (s *libStore) conn(i int) (mailConn, error) { return &libConn{s: s, t: s.ths[i]}, nil }
func (s *libStore) roots() []string              { return []string{s.dir} }
func (s *libStore) close()                       { s.os.CloseAll() }

func (s *libStore) reboot() error {
	s.os.CloseAll()
	o, err := gfs.NewOS(s.dir, mailboat.Dirs(s.cfg))
	if err != nil {
		return err
	}
	s.os = o
	sys := s.sys(o)
	t1 := time.Now()
	s.mb = mailboat.Recover(s.ths[len(s.ths)-1], nil, sys, s.cfg, nil)
	if s.lc != nil {
		s.lc.recoverNS = int64(time.Since(t1))
	}
	return nil
}

// readBox reads user's mailbox straight from its files when raw, and
// through the library otherwise.
func (s *libStore) readBox(user uint64, raw bool) ([]string, error) {
	if !raw {
		msgs := s.mb.Pickup(s.audit, nil, user)
		s.mb.Unlock(s.audit, nil, user)
		out := make([]string, len(msgs))
		for i, m := range msgs {
			out[i] = m.Contents
		}
		return out, nil
	}
	dir := filepath.Join(s.dir, mailboat.UserDir(user))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, string(b))
	}
	return out, nil
}

type libConn struct {
	s *libStore
	t *gfs.Native
}

func (c *libConn) deliver(user uint64, body []byte) error {
	if !c.s.mb.Deliver(c.t, nil, user, body) {
		return fmt.Errorf("deliver to mailbox %d failed", user)
	}
	return nil
}

func (c *libConn) open(user uint64) ([]message, error) {
	msgs := c.s.mb.Pickup(c.t, nil, user)
	out := make([]message, len(msgs))
	for i, m := range msgs {
		out[i] = message{id: m.ID, body: m.Contents}
	}
	return out, nil
}

func (c *libConn) finish(user uint64, ids []string) error {
	defer c.s.mb.Unlock(c.t, nil, user)
	for _, id := range ids {
		if !c.s.mb.Delete(c.t, nil, user, id) {
			return fmt.Errorf("delete %s from mailbox %d failed", id, user)
		}
	}
	return nil
}

func (c *libConn) close() {}

// timedFS times every gfs.System call and charges it to the calling
// thread's current operation.
type timedFS struct {
	inner gfs.System
	byT   map[gfs.T]int
	lc    *layerClock
}

// charge records one call by t; n is the bytes it appended or read.
func (f *timedFS) charge(t gfs.T, op fsOp, t0 time.Time, n int) {
	if i, ok := f.byT[t]; ok {
		f.lc.fs(i, op, time.Since(t0), n)
	}
}

func (f *timedFS) NewLock(t gfs.T, name string) gfs.Lock { return f.inner.NewLock(t, name) }

func (f *timedFS) Create(t gfs.T, dir, name string) (gfs.FD, bool) {
	t0 := time.Now()
	fd, ok := f.inner.Create(t, dir, name)
	f.charge(t, fsCreate, t0, 0)
	return fd, ok
}

func (f *timedFS) Open(t gfs.T, dir, name string) (gfs.FD, bool) {
	t0 := time.Now()
	fd, ok := f.inner.Open(t, dir, name)
	f.charge(t, fsOpen, t0, 0)
	return fd, ok
}

func (f *timedFS) Append(t gfs.T, fd gfs.FD, data []byte) bool {
	t0 := time.Now()
	ok := f.inner.Append(t, fd, data)
	f.charge(t, fsAppend, t0, len(data))
	return ok
}

func (f *timedFS) Close(t gfs.T, fd gfs.FD) {
	t0 := time.Now()
	f.inner.Close(t, fd)
	f.charge(t, fsClose, t0, 0)
}

func (f *timedFS) ReadAt(t gfs.T, fd gfs.FD, off, n uint64) []byte {
	t0 := time.Now()
	b := f.inner.ReadAt(t, fd, off, n)
	f.charge(t, fsReadAt, t0, len(b))
	return b
}

func (f *timedFS) Size(t gfs.T, fd gfs.FD) uint64 {
	t0 := time.Now()
	n := f.inner.Size(t, fd)
	f.charge(t, fsSize, t0, 0)
	return n
}

func (f *timedFS) Sync(t gfs.T, fd gfs.FD) bool {
	t0 := time.Now()
	ok := f.inner.Sync(t, fd)
	f.charge(t, fsSync, t0, 0)
	return ok
}

func (f *timedFS) SyncDir(t gfs.T, dir string) bool {
	t0 := time.Now()
	ok := f.inner.SyncDir(t, dir)
	f.charge(t, fsSyncDir, t0, 0)
	return ok
}

func (f *timedFS) Delete(t gfs.T, dir, name string) bool {
	t0 := time.Now()
	ok := f.inner.Delete(t, dir, name)
	f.charge(t, fsDelete, t0, 0)
	return ok
}

func (f *timedFS) Link(t gfs.T, oldDir, oldName, newDir, newName string) bool {
	t0 := time.Now()
	ok := f.inner.Link(t, oldDir, oldName, newDir, newName)
	f.charge(t, fsLink, t0, 0)
	return ok
}

func (f *timedFS) List(t gfs.T, dir string) []string {
	t0 := time.Now()
	names := f.inner.List(t, dir)
	f.charge(t, fsList, t0, 0)
	return names
}
