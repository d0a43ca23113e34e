package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// A message body carries its own identity and checksum, so every read
// can be verified without trusting the store:
//
//	X-Bench-Id: <uid, 16 hex digits>
//	X-Bench-Sum: <first 8 bytes of SHA-256 of the payload, hex>
//	<payload: lines of 64 characters from [a-z0-9]>
//
// Every line ends in "\n" and none starts with ".", so the body
// survives SMTP DATA and POP3 RETR unchanged.
const (
	idHeader  = "X-Bench-Id: "
	sumHeader = "X-Bench-Sum: "
	lineLen   = 64
	minLines  = 2
	maxLines  = 16
)

const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

func sum64(b []byte) uint64 {
	h := sha256.Sum256(b)
	return binary.BigEndian.Uint64(h[:8])
}

// inputs generates one client's request stream from the seed: which
// mailbox each operation targets and the bodies it delivers.
type inputs struct {
	rng     *rand.Rand
	zipf    *rand.Zipf // nil draws mailboxes uniformly
	owned   uint64     // mailboxes this client owns: client, client+clients, ...
	client  uint64
	clients uint64
	next    uint64 // per-client message counter
}

// newInputs returns client's generator. Mailbox u belongs to client
// u % clients, so no two clients ever touch the same mailbox and every
// client's view of its mailboxes is exact. zipfS > 1 skews draws
// towards low-numbered mailboxes; 0 draws uniformly.
func newInputs(seed int64, client, clients int, users uint64, zipfS float64) *inputs {
	g := &inputs{
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(client))),
		client:  uint64(client),
		clients: uint64(clients),
	}
	g.owned = (users - g.client + g.clients - 1) / g.clients
	if zipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, g.owned-1)
	}
	return g
}

// user draws the next operation's mailbox.
func (g *inputs) user() uint64 {
	var r uint64
	if g.zipf != nil {
		r = g.zipf.Uint64()
	} else {
		r = uint64(g.rng.Int63n(int64(g.owned)))
	}
	return r*g.clients + g.client
}

// body returns a fresh message with a unique id.
func (g *inputs) body() (uid uint64, b []byte) {
	g.next++
	uid = (g.client+1)<<40 | g.next
	lines := minLines + g.rng.Intn(maxLines-minLines+1)
	payload := make([]byte, lines*(lineLen+1))
	for i := range payload {
		if i%(lineLen+1) == lineLen {
			payload[i] = '\n'
		} else {
			payload[i] = alphabet[g.rng.Intn(len(alphabet))]
		}
	}
	head := fmt.Sprintf("%s%016x\n%s%016x\n", idHeader, uid, sumHeader, sum64(payload))
	return uid, append([]byte(head), payload...)
}

// parseBody checks a body's own checksum and returns its id and the
// hash of the whole body.
func parseBody(body string) (uid, hash uint64, err error) {
	idLine, rest, ok1 := strings.Cut(body, "\n")
	sumLine, payload, ok2 := strings.Cut(rest, "\n")
	idHex, ok3 := strings.CutPrefix(idLine, idHeader)
	sumHex, ok4 := strings.CutPrefix(sumLine, sumHeader)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return 0, 0, fmt.Errorf("malformed message header %q", trunc(body))
	}
	uid, err1 := strconv.ParseUint(idHex, 16, 64)
	want, err2 := strconv.ParseUint(sumHex, 16, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("malformed message header %q", trunc(body))
	}
	if got := sum64([]byte(payload)); got != want {
		return uid, 0, fmt.Errorf("message %016x: payload checksum %016x, header says %016x", uid, got, want)
	}
	return uid, sum64([]byte(body)), nil
}

func trunc(s string) string {
	if len(s) > 48 {
		return s[:48] + "..."
	}
	return s
}

// entry is one acknowledged, not yet deleted message.
type entry struct {
	hash uint64
	size int
}

// ledger is the benchmark's own record of what each mailbox must hold:
// a message enters when its delivery is acknowledged and leaves when
// its deletion is acknowledged.
type ledger struct {
	boxes   map[uint64]map[uint64]entry // user -> uid -> entry
	deleted map[uint64]bool             // uids whose deletion was acknowledged
	bytes   int64                       // live message bytes
}

func newLedger() *ledger {
	return &ledger{boxes: map[uint64]map[uint64]entry{}, deleted: map[uint64]bool{}}
}

func (l *ledger) acked(user, uid uint64, body []byte) {
	box := l.boxes[user]
	if box == nil {
		box = map[uint64]entry{}
		l.boxes[user] = box
	}
	box[uid] = entry{hash: sum64(body), size: len(body)}
	l.bytes += int64(len(body))
}

func (l *ledger) removed(user, uid uint64) {
	e := l.boxes[user][uid]
	delete(l.boxes[user], uid)
	l.deleted[uid] = true
	l.bytes -= int64(e.size)
}

// merge folds another client's ledger in; clients own disjoint mailboxes.
func (l *ledger) merge(o *ledger) {
	for u, box := range o.boxes {
		l.boxes[u] = box
	}
	for uid := range o.deleted {
		l.deleted[uid] = true
	}
	l.bytes += o.bytes
}

// check compares the bodies read from user's mailbox with the ledger:
// every body must verify, and the set of ids must equal the ledger's
// exactly — no acknowledged message missing, no deleted message back,
// nothing unacknowledged present. It returns the ids in read order.
func (l *ledger) check(user uint64, bodies []string) ([]uint64, error) {
	box := l.boxes[user]
	uids := make([]uint64, len(bodies))
	seen := make(map[uint64]bool, len(bodies))
	for i, b := range bodies {
		uid, hash, err := parseBody(b)
		if err != nil {
			return nil, fmt.Errorf("mailbox %d: %v", user, err)
		}
		e, ok := box[uid]
		switch {
		case seen[uid]:
			return nil, fmt.Errorf("mailbox %d: message %016x appears twice", user, uid)
		case !ok && l.deleted[uid]:
			return nil, fmt.Errorf("mailbox %d: deleted message %016x is back", user, uid)
		case !ok:
			return nil, fmt.Errorf("mailbox %d: message %016x was never acknowledged here", user, uid)
		case e.hash != hash:
			return nil, fmt.Errorf("mailbox %d: message %016x does not match what was delivered", user, uid)
		}
		seen[uid] = true
		uids[i] = uid
	}
	if len(seen) != len(box) {
		for uid := range box {
			if !seen[uid] {
				return nil, fmt.Errorf("mailbox %d: acknowledged message %016x is missing (%d of %d present)", user, uid, len(seen), len(box))
			}
		}
	}
	return uids, nil
}
