package main

import (
	"math"
	"sync"
	"time"
)

// Layer timing from outside: the traced run wraps the public interface
// below the layer it measures (gfs.System under mailboat, the SMTP and
// POP3 backends above mailboatd) and charges each call to the client
// that made it and to the operation kind that client is running. A
// layer's self time is the client-observed operation time minus the
// time in the wrapped layer below.

// fsOp indexes gfs.System methods.
type fsOp int

const (
	fsCreate fsOp = iota
	fsOpen
	fsAppend
	fsClose
	fsReadAt
	fsSize
	fsSync
	fsSyncDir
	fsDelete
	fsLink
	fsList
	nFsOps
)

var fsOpNames = [nFsOps]string{"create", "open", "append", "close", "readat", "size", "sync", "syncdir", "delete", "link", "list"}

// adOp indexes mailboatd adapter calls made by the protocol servers.
type adOp int

const (
	adDeliver adOp = iota
	adPickup
	adDelete
	adUnlock
	nAdOps
)

// counts is one slot of layer time and work.
type counts struct {
	fsCalls  [nFsOps]int64
	fsNS     [nFsOps]int64
	appended int64 // bytes passed to Append
	read     int64 // bytes returned by ReadAt
	adCalls  [nAdOps]int64
	adNS     [nAdOps]int64
}

func (c *counts) fsTotal() (calls, ns int64) {
	for i := range c.fsCalls {
		calls += c.fsCalls[i]
		ns += c.fsNS[i]
	}
	return
}

func (c *counts) add(o *counts) {
	for i := range c.fsCalls {
		c.fsCalls[i] += o.fsCalls[i]
		c.fsNS[i] += o.fsNS[i]
	}
	for i := range c.adCalls {
		c.adCalls[i] += o.adCalls[i]
		c.adNS[i] += o.adNS[i]
	}
	c.appended += o.appended
	c.read += o.read
}

// slots: one per operation kind, plus recovery and "outside any
// operation" (set-up, warm-up, audits).
const (
	slotRecover = 2
	slotIdle    = 3
	nSlots      = 4
)

// threadClock is one client's (or the recovery thread's) accounting.
// Only that client's goroutine, or the server goroutine serving it,
// writes it, one call at a time.
type threadClock struct {
	mu    sync.Mutex // the SMTP and POP3 server goroutines serving one client both write its slots
	slot  int
	slots [nSlots]counts
}

// layerClock holds every client's accounting plus the recovery
// thread's. A nil *layerClock is the untraced run: every method is a
// no-op.
type layerClock struct {
	th        []*threadClock // clients 0..n-1, then the recovery thread
	recoverNS int64          // time inside mailboat.Recover during the reboot
}

func newLayerClock(n int) *layerClock {
	lc := &layerClock{th: make([]*threadClock, n+1)}
	for i := range lc.th {
		lc.th[i] = &threadClock{slot: slotIdle}
	}
	lc.th[n].slot = slotRecover
	return lc
}

func (lc *layerClock) recovery() int { return len(lc.th) - 1 }

func (lc *layerClock) enter(client, kind int) {
	if lc != nil {
		lc.th[client].slot = kind
	}
}

func (lc *layerClock) exit(client int) {
	if lc != nil {
		lc.th[client].slot = slotIdle
	}
}

// reset drops what set-up and warm-up recorded.
func (lc *layerClock) reset() {
	if lc == nil {
		return
	}
	for _, t := range lc.th {
		t.slots = [nSlots]counts{}
	}
	lc.recoverNS = 0
}

// startRecovery clears the recovery thread's slot before the reboot.
func (lc *layerClock) startRecovery() {
	t := lc.th[lc.recovery()]
	t.slots[slotRecover] = counts{}
	lc.recoverNS = 0
}

// fs charges one gfs call; n is the bytes it appended or read.
func (lc *layerClock) fs(client int, op fsOp, d time.Duration, n int) {
	t := lc.th[client]
	s := &t.slots[t.slot]
	s.fsCalls[op]++
	s.fsNS[op] += int64(d)
	switch op {
	case fsAppend:
		s.appended += int64(n)
	case fsReadAt:
		s.read += int64(n)
	}
}

func (lc *layerClock) adapter(client int, op adOp, kind int, d time.Duration) {
	t := lc.th[client]
	t.mu.Lock()
	t.slots[kind].adCalls[op]++
	t.slots[kind].adNS[op] += int64(d)
	t.mu.Unlock()
}

// reconcileTolerance is how far layer times plus the benchmark's own
// time may differ from each client's wall time, as a share of it. The
// check shows that the client loop leaves no untimed gap; it cannot
// show that a wrapped layer's time is right, since the self time above
// a layer is derived as the remainder. checkCounts covers the wrappers.
const reconcileTolerance = 0.02

// report derives the per-layer metrics from the traced leg and checks
// that they reconcile with wall time.
func (lc *layerClock) report(o *outcome, cl []*client) {
	var by [nSlots]counts
	for _, t := range lc.th {
		t.mu.Lock()
		for k := range t.slots {
			by[k].add(&t.slots[k])
		}
		t.mu.Unlock()
	}
	var ops, opNS [2]int64
	var delivered, msgsRead, bytesRead, deleted int64
	worst := 0.0
	for _, c := range cl {
		for k := 0; k < 2; k++ {
			ops[k] += c.ops[k]
			opNS[k] += c.opNS[k]
		}
		delivered += c.delivered
		msgsRead += c.msgsRead
		bytesRead += c.bytesRead
		deleted += c.deleted
		// Layer times tile each operation (inner layer + the self time
		// above it = the client-observed time), so layers plus the
		// benchmark's own time must cover the client's wall time.
		acc := c.opNS[0] + c.opNS[1] + c.ownNS
		if c.wallNS > 0 {
			worst = math.Max(worst, math.Abs(float64(acc-c.wallNS))/float64(c.wallNS))
		}
		t := lc.th[c.idx]
		t.mu.Lock()
		for k := 0; k < 2; k++ {
			_, fsNS := t.slots[k].fsTotal()
			var adNS int64
			for _, v := range t.slots[k].adNS {
				adNS += v
			}
			if fsNS > c.opNS[k] || adNS > c.opNS[k] {
				o.fail("reconcile: client %d spent more time inside a layer than in its %s operations", c.idx, kindName(k))
			}
		}
		t.mu.Unlock()
	}
	checkCounts(o, &by, ops, delivered, msgsRead, bytesRead, deleted)
	o.set("trace.reconcile_err", worst, len(cl))
	o.note("reconcile: layers + benchmark time vs wall time, worst client off by %.3f%% (tolerance %.0f%%)", 100*worst, 100*reconcileTolerance)
	if worst > reconcileTolerance {
		o.fail("reconcile: layer times plus benchmark time are %.2f%% off wall time, tolerance %.0f%%", 100*worst, 100*reconcileTolerance)
	}

	per := func(v int64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	us := func(ns int64, n int64) float64 { return per(ns, n) / 1e3 }

	// gfs under mailboat (library workloads).
	if c, _ := by[kDeliver].fsTotal(); c > 0 {
		dCalls, dNS := by[kDeliver].fsTotal()
		pCalls, pNS := by[kPickup].fsTotal()
		o.set("gfs.deliver_us", us(dNS, ops[kDeliver]), int(ops[kDeliver]))
		o.set("gfs.pickup_us", us(pNS, ops[kPickup]), int(ops[kPickup]))
		o.set("mailboat.deliver_self_us", us(opNS[kDeliver]-dNS, ops[kDeliver]), int(ops[kDeliver]))
		o.set("mailboat.pickup_self_us", us(opNS[kPickup]-pNS, ops[kPickup]), int(ops[kPickup]))
		o.set("gfs.calls_per_deliver", per(dCalls, ops[kDeliver]), 0)
		o.set("gfs.calls_per_pickup", per(pCalls, ops[kPickup]), 0)
		o.set("gfs.creates_per_deliver", per(by[kDeliver].fsCalls[fsCreate], ops[kDeliver]), 0)
		o.set("gfs.bytes_appended_per_msg_byte", per(by[kDeliver].appended, delivered), 0)
		var all counts
		all.add(&by[kDeliver])
		all.add(&by[kPickup])
		for _, op := range []fsOp{fsCreate, fsAppend, fsLink, fsDelete, fsList, fsOpen, fsReadAt} {
			n := all.fsCalls[op]
			o.set("gfs."+fsOpNames[op]+"_us", us(all.fsNS[op], n), int(n))
		}
		rCalls, rNS := by[slotRecover].fsTotal()
		o.set("gfs.recover_calls", float64(rCalls), 0)
		o.set("gfs.recover_s", float64(rNS)/1e9, 0)
		o.set("mailboat.recover_self_s", float64(lc.recoverNS-rNS)/1e9, 0)
	}

	// Protocol servers over mailboatd (daemon workload).
	if by[kDeliver].adCalls[adDeliver] > 0 {
		ad := func(op adOp) (int64, int64) {
			return by[kDeliver].adCalls[op] + by[kPickup].adCalls[op], by[kDeliver].adNS[op] + by[kPickup].adNS[op]
		}
		dc, dn := ad(adDeliver)
		pc, pn := ad(adPickup)
		xc, xn := ad(adDelete)
		uc, un := ad(adUnlock)
		o.set("mailboatd.deliver_us", us(dn, dc), int(dc))
		o.set("mailboatd.pickup_us", us(pn, pc), int(pc))
		o.set("mailboatd.delete_us", us(xn, xc), int(xc))
		o.set("mailboatd.calls_per_session", per(pc+xc+uc, ops[kPickup]), 0)
		o.set("smtp.deliver_self_us", us(opNS[kDeliver]-dn, ops[kDeliver]), int(ops[kDeliver]))
		o.set("pop3.session_self_us", us(opNS[kPickup]-pn-xn-un, ops[kPickup]), int(ops[kPickup]))
	}
}

// checkCounts checks the wrapped layers' call counts against what the
// benchmark derives on its own from the operations it completed and the
// messages it verified. Unlike the wall-time reconciliation, this shows
// that every call the wrappers time is seen and charged to the
// operation that made it. The counts hold for a fault-free store with
// the sync barriers off; a change to the calls mailboat or the
// protocol servers make per operation must update them.
func checkCounts(o *outcome, by *[nSlots]counts, ops [2]int64, delivered, msgsRead, bytesRead, deleted int64) {
	want := func(what string, got, want int64) {
		if got != want {
			o.fail("layer counts: %s is %d, the benchmark's own operations give %d", what, got, want)
		}
	}
	if c, _ := by[slotIdle].fsTotal(); c > 0 {
		o.fail("layer counts: %d gfs calls were made outside any timed operation", c)
	}
	if c, _ := by[kDeliver].fsTotal(); c > 0 {
		d, p := &by[kDeliver], &by[kPickup]
		want("gfs creates in deliveries", d.fsCalls[fsCreate], ops[kDeliver])
		want("gfs links in deliveries", d.fsCalls[fsLink], ops[kDeliver])
		want("bytes appended in deliveries", d.appended, delivered)
		want("gfs lists in pickup sessions", p.fsCalls[fsList], ops[kPickup])
		want("gfs opens in pickup sessions", p.fsCalls[fsOpen], msgsRead)
		want("gfs closes in pickup sessions", p.fsCalls[fsClose], msgsRead)
		want("bytes read in pickup sessions", p.read, bytesRead)
		want("gfs deletes in pickup sessions", p.fsCalls[fsDelete], deleted)
	}
	if by[kDeliver].adCalls[adDeliver] > 0 {
		ad := func(op adOp) int64 { return by[kDeliver].adCalls[op] + by[kPickup].adCalls[op] }
		want("adapter deliveries", ad(adDeliver), ops[kDeliver])
		want("adapter pickups", ad(adPickup), ops[kPickup])
		want("adapter deletes", ad(adDelete), deleted)
		want("adapter unlocks", ad(adUnlock), ops[kPickup])
	}
}

func kindName(k int) string {
	if k == kDeliver {
		return "delivery"
	}
	return "pickup"
}
