package delivery

import (
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/qos"
	"github.com/gsalert/gsalert/internal/trace"
	"github.com/gsalert/gsalert/internal/xmlwire"
)

// A mailbox holds one user's undelivered notifications. Entries move through
// three states: inflight (queued on a shard), parked (at rest, waiting for
// the client to attach) and gone (delivered or evicted). With a WAL the
// pending set survives restarts: every add appends an 'A' record, every
// delivery an 'K' (ack) record, and once enough of the log is dead it is
// compacted into a snapshot holding only the live entries.
//
// The WAL is a sequence of length-delimited binary records:
//
//	'A' seq(u64) len(u32) payload   — notification appended
//	'K' seq(u64)                    — notification delivered/evicted
//
// A torn trailing record (crash mid-write) is detected by length and
// silently discarded on recovery; everything before it is intact.

const (
	recAppend byte = 'A'
	recAck    byte = 'K'

	walSuffix               = ".wal"
	defaultCompactThreshold = 1024

	// maxWALRecord bounds one record's payload; a larger length prefix
	// means corruption, not a notification.
	maxWALRecord = 16 << 20
)

type entry struct {
	seq      uint64
	n        Notification
	inflight bool
}

type mailbox struct {
	mu      sync.Mutex
	user    string
	entries []entry // ordered by seq
	nextSeq uint64
	cap     int

	wal          *os.File // nil when memory-only
	walPath      string
	deadRecords  int // acked records since last compaction
	totalRecords int
	compactAt    int
}

// newMailbox opens (or creates) a mailbox. With dir == "" the mailbox is
// memory-only.
func newMailbox(dir, user string, capacity, compactAt int) (*mailbox, error) {
	mb := &mailbox{user: user, nextSeq: 1, cap: capacity, compactAt: compactAt}
	if dir == "" {
		return mb, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("delivery: mailbox dir: %w", err)
	}
	mb.walPath = filepath.Join(dir, mailboxFileName(user))
	if err := mb.recover(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(mb.walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("delivery: mailbox wal: %w", err)
	}
	mb.wal = f
	return mb, nil
}

// mailboxFileName escapes a user name into a safe file name.
func mailboxFileName(user string) string {
	return url.PathEscape(user) + walSuffix
}

// userFromFileName reverses mailboxFileName; ok is false for foreign files.
func userFromFileName(name string) (string, bool) {
	if !strings.HasSuffix(name, walSuffix) {
		return "", false
	}
	user, err := url.PathUnescape(strings.TrimSuffix(name, walSuffix))
	if err != nil {
		return "", false
	}
	return user, true
}

// recoverMailboxes opens every mailbox WAL found under dir. Recovered
// entries are parked: their users have not attached yet.
func recoverMailboxes(dir string, capacity, compactAt int) (map[string]*mailbox, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("delivery: mailbox dir: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("delivery: mailbox dir: %w", err)
	}
	out := make(map[string]*mailbox)
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		user, ok := userFromFileName(de.Name())
		if !ok {
			continue
		}
		mb, err := newMailbox(dir, user, capacity, compactAt)
		if err != nil {
			return nil, err
		}
		out[user] = mb
	}
	return out, nil
}

// recover replays the WAL into the in-memory pending set. A torn tail
// (crash mid-append) is truncated away so the file ends at the last intact
// record — otherwise subsequent appends would land behind unreadable bytes
// and be silently lost on the next recovery.
func (mb *mailbox) recover() error {
	f, err := os.Open(mb.walPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("delivery: mailbox recover: %w", err)
	}
	defer f.Close()
	type rec struct {
		n     Notification
		alive bool
	}
	order := make([]uint64, 0, 64)
	live := make(map[uint64]*rec)
	cr := &countingReader{r: f}
	r := newWALReader(cr)
	goodOff := int64(0)
	torn := false
	for {
		kind, seq, n, err := r.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn or corrupt tail: keep everything read so far and cut
			// the file back to the last intact record below.
			torn = true
			break
		}
		goodOff = cr.n
		switch kind {
		case recAppend:
			if _, dup := live[seq]; !dup {
				order = append(order, seq)
			}
			live[seq] = &rec{n: n, alive: true}
		case recAck:
			if rc, ok := live[seq]; ok {
				rc.alive = false
			}
		}
		if seq >= mb.nextSeq {
			mb.nextSeq = seq + 1
		}
		mb.totalRecords++
	}
	for _, seq := range order {
		if rc := live[seq]; rc.alive {
			mb.entries = append(mb.entries, entry{seq: seq, n: rc.n})
		} else {
			mb.deadRecords++
		}
	}
	if torn {
		if err := os.Truncate(mb.walPath, goodOff); err != nil {
			return fmt.Errorf("delivery: mailbox truncate torn tail: %w", err)
		}
	}
	return nil
}

// countingReader tracks bytes consumed so recovery knows where the last
// intact record ends.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// add appends a notification, evicting the oldest parked entries beyond the
// cap. It returns the assigned sequence and the sequences of evicted
// entries (so replication can mirror the evictions as acks).
func (mb *mailbox) add(n Notification) (seq uint64, evicted []uint64, err error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	seq = mb.nextSeq
	mb.nextSeq++
	if err := mb.walAppend(seq, n); err != nil {
		return 0, nil, err
	}
	mb.entries = append(mb.entries, entry{seq: seq, n: n, inflight: true})
	// Evict oldest parked entries when over capacity; inflight entries are
	// spoken for (their shard will ack or park them).
	for len(mb.entries) > mb.cap {
		idx := -1
		for i := range mb.entries {
			if !mb.entries[i].inflight {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		gone := mb.entries[idx].seq
		mb.entries = append(mb.entries[:idx], mb.entries[idx+1:]...)
		_ = mb.walAck(gone)
		evicted = append(evicted, gone)
	}
	mb.maybeCompactLocked()
	return seq, evicted, nil
}

// ack removes delivered entries, returning the sequences actually removed.
func (mb *mailbox) ack(seqs []uint64) []uint64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	gone := make(map[uint64]bool, len(seqs))
	for _, s := range seqs {
		gone[s] = true
	}
	var acked []uint64
	kept := mb.entries[:0]
	for _, e := range mb.entries {
		if gone[e.seq] {
			_ = mb.walAck(e.seq)
			acked = append(acked, e.seq)
			continue
		}
		kept = append(kept, e)
	}
	mb.entries = kept
	mb.maybeCompactLocked()
	return acked
}

// applyAppend installs a replicated entry with the primary's sequence,
// parked (the standby delivers nothing until promotion). Entries arrive in
// per-sender order but concurrent producers may interleave sequences, so the
// entry is inserted in seq order; a re-applied sequence (snapshot/stream
// overlap) is a no-op.
func (mb *mailbox) applyAppend(seq uint64, n Notification) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	idx := len(mb.entries)
	for i := range mb.entries {
		if mb.entries[i].seq == seq {
			return nil // duplicate (snapshot overlap): already present
		}
		if mb.entries[i].seq > seq {
			idx = i
			break
		}
	}
	if err := mb.walAppend(seq, n); err != nil {
		return err
	}
	mb.entries = append(mb.entries, entry{})
	copy(mb.entries[idx+1:], mb.entries[idx:])
	mb.entries[idx] = entry{seq: seq, n: n}
	if seq >= mb.nextSeq {
		mb.nextSeq = seq + 1
	}
	mb.maybeCompactLocked()
	return nil
}

// applyAck removes a replicated-delivered entry. Unknown sequences are
// ignored (pre-snapshot residue of the stream).
func (mb *mailbox) applyAck(seq uint64) {
	mb.ack([]uint64{seq})
}

// export copies the pending set (parked and inflight) in seq order.
func (mb *mailbox) export() (nextSeq uint64, entries []entry) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.nextSeq, append([]entry(nil), mb.entries...)
}

// replaceAll substitutes the whole pending set (snapshot apply), parking
// every entry, and rewrites the WAL to match.
func (mb *mailbox) replaceAll(nextSeq uint64, entries []entry) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.entries = mb.entries[:0]
	for _, e := range entries {
		mb.entries = append(mb.entries, entry{seq: e.seq, n: e.n})
	}
	if nextSeq > mb.nextSeq {
		mb.nextSeq = nextSeq
	}
	if mb.wal != nil {
		return mb.compactLocked()
	}
	return nil
}

// park marks an entry at rest (undelivered, waiting for attach).
func (mb *mailbox) park(seq uint64) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i := range mb.entries {
		if mb.entries[i].seq == seq {
			mb.entries[i].inflight = false
			return
		}
	}
}

// takePending marks every parked entry inflight and returns them in order,
// for redelivery through the pipeline.
func (mb *mailbox) takePending() []item {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var out []item
	for i := range mb.entries {
		if !mb.entries[i].inflight {
			mb.entries[i].inflight = true
			out = append(out, item{n: mb.entries[i].n, seq: mb.entries[i].seq})
		}
	}
	return out
}

// parkedCount reports entries at rest.
func (mb *mailbox) parkedCount() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	n := 0
	for i := range mb.entries {
		if !mb.entries[i].inflight {
			n++
		}
	}
	return n
}

// pendingCount reports all undelivered entries (parked and inflight).
func (mb *mailbox) pendingCount() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.entries)
}

// close compacts (snapshotting live entries) and closes the WAL.
func (mb *mailbox) close() error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.wal == nil {
		return nil
	}
	err := mb.compactLocked()
	cerr := mb.wal.Close()
	mb.wal = nil
	if err != nil {
		return err
	}
	return cerr
}

// ---------------------------------------------------------------------------
// WAL encoding

func (mb *mailbox) walAppend(seq uint64, n Notification) error {
	if mb.wal == nil {
		return nil
	}
	mb.totalRecords++
	payload, err := marshalNotification(n)
	if err != nil {
		return err
	}
	buf := make([]byte, 1+8+4, 1+8+4+len(payload))
	buf[0] = recAppend
	binary.BigEndian.PutUint64(buf[1:9], seq)
	binary.BigEndian.PutUint32(buf[9:13], uint32(len(payload)))
	buf = append(buf, payload...)
	if _, err := mb.wal.Write(buf); err != nil {
		return fmt.Errorf("delivery: wal append: %w", err)
	}
	return nil
}

func (mb *mailbox) walAck(seq uint64) error {
	if mb.wal == nil {
		return nil
	}
	mb.totalRecords++
	mb.deadRecords++
	var buf [1 + 8]byte
	buf[0] = recAck
	binary.BigEndian.PutUint64(buf[1:9], seq)
	if _, err := mb.wal.Write(buf[:]); err != nil {
		return fmt.Errorf("delivery: wal ack: %w", err)
	}
	return nil
}

// maybeCompactLocked compacts once the dead-record count crosses the
// threshold and outweighs the live set. A failed compaction leaves the old
// log open and intact, so the next crossing simply tries again.
func (mb *mailbox) maybeCompactLocked() {
	if mb.wal == nil || mb.deadRecords < mb.compactAt || mb.deadRecords*2 < len(mb.entries) {
		return
	}
	_ = mb.compactLocked()
}

// writeSnapshotLocked writes the live entries as a fresh WAL (append
// records only) to path, fsynced, and returns the handle that wrote it,
// positioned for further appends — the first phase of compaction. It is a
// separate step so the crash-recovery tests can reproduce a kill between
// the snapshot write and the rename.
func (mb *mailbox) writeSnapshotLocked(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("delivery: compact: %w", err)
	}
	fail := func(err error) (*os.File, error) {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	for _, e := range mb.entries {
		payload, err := marshalNotification(e.n)
		if err != nil {
			return fail(err)
		}
		buf := make([]byte, 1+8+4, 1+8+4+len(payload))
		buf[0] = recAppend
		binary.BigEndian.PutUint64(buf[1:9], e.seq)
		binary.BigEndian.PutUint32(buf[9:13], uint32(len(payload)))
		buf = append(buf, payload...)
		if _, err := f.Write(buf); err != nil {
			return fail(fmt.Errorf("delivery: compact write: %w", err))
		}
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("delivery: compact sync: %w", err))
	}
	return f, nil
}

// compactLocked rewrites the WAL as a snapshot of the live entries: write a
// temp file, fsync, rename it over the log. The handle that wrote the
// snapshot becomes the log's append handle, so the rename is the last step
// that can fail, and a failed rename leaves the old log and its handle in
// place: the mailbox never loses its WAL.
func (mb *mailbox) compactLocked() error {
	if mb.wal == nil {
		return nil
	}
	tmpPath := mb.walPath + ".tmp"
	f, err := mb.writeSnapshotLocked(tmpPath)
	if err != nil {
		return err
	}
	if err := os.Rename(tmpPath, mb.walPath); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("delivery: compact rename: %w", err)
	}
	_ = mb.wal.Close() // the renamed-over log: nothing left to flush
	mb.wal = f
	mb.totalRecords = len(mb.entries)
	mb.deadRecords = 0
	return nil
}

// walReader decodes WAL records from a stream.
type walReader struct {
	r io.Reader
}

func newWALReader(r io.Reader) *walReader { return &walReader{r: r} }

// next returns the next record; io.EOF at a clean end, other errors on a
// torn or corrupt tail.
func (w *walReader) next() (kind byte, seq uint64, n Notification, err error) {
	var head [1 + 8]byte
	if _, err = io.ReadFull(w.r, head[:1]); err != nil {
		return 0, 0, n, io.EOF
	}
	kind = head[0]
	if kind != recAppend && kind != recAck {
		return 0, 0, n, fmt.Errorf("delivery: wal: bad record kind %q", kind)
	}
	if _, err = io.ReadFull(w.r, head[1:9]); err != nil {
		return 0, 0, n, fmt.Errorf("delivery: wal: torn header: %w", err)
	}
	seq = binary.BigEndian.Uint64(head[1:9])
	if kind == recAck {
		return kind, seq, n, nil
	}
	var lenBuf [4]byte
	if _, err = io.ReadFull(w.r, lenBuf[:]); err != nil {
		return 0, 0, n, fmt.Errorf("delivery: wal: torn length: %w", err)
	}
	size := binary.BigEndian.Uint32(lenBuf[:])
	if size > maxWALRecord {
		return 0, 0, n, fmt.Errorf("delivery: wal: record size %d exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err = io.ReadFull(w.r, payload); err != nil {
		return 0, 0, n, fmt.Errorf("delivery: wal: torn payload: %w", err)
	}
	n, err = unmarshalNotification(payload)
	if err != nil {
		return 0, 0, n, err
	}
	return kind, seq, n, nil
}

// ---------------------------------------------------------------------------
// Notification serialisation (the same XML forms the wire protocol uses)

// rawXML embeds pre-marshalled XML verbatim inside a wrapping element (the
// same idiom internal/protocol uses for events on the wire).
type rawXML struct {
	Inner []byte `xml:",innerxml"`
}

// walNotification is the persisted form of a Notification, as encoding/xml
// reads it.
type walNotification struct {
	XMLName      xml.Name `xml:"Notification"`
	Client       string   `xml:"Client"`
	ProfileID    string   `xml:"ProfileID"`
	DocIDs       []string `xml:"Docs>ID,omitempty"`
	AtNano       int64    `xml:"At,omitempty"`
	Composite    string   `xml:"Composite,omitempty"`
	Class        string   `xml:"Class,omitempty"`
	Trace        string   `xml:"Trace,omitempty"`
	Event        rawXML   `xml:"Event"`
	Contributing []rawXML `xml:"Contributing>Event,omitempty"`
}

// marshalNotification renders the persisted form: the bytes encoding/xml's
// Marshal emits for walNotification (testdata/wire is the fence), written
// without reflection.
func marshalNotification(n Notification) ([]byte, error) {
	var event []byte
	if n.Event != nil {
		raw, err := n.Event.MarshalXMLBytes()
		if err != nil {
			return nil, fmt.Errorf("delivery: marshal event: %w", err)
		}
		event = raw
	}
	var contributing [][]byte
	for _, ev := range n.Contributing {
		raw, err := ev.MarshalXMLBytes()
		if err != nil {
			return nil, fmt.Errorf("delivery: marshal contributing event: %w", err)
		}
		contributing = append(contributing, raw)
	}
	var w xmlwire.Writer
	n.writeXML(&w, event, contributing)
	w.Alloc()
	n.writeXML(&w, event, contributing)
	return w.Bytes(), nil
}

func (n *Notification) writeXML(w *xmlwire.Writer, event []byte, contributing [][]byte) {
	w.Markup("<Notification>")
	w.Element("Client", n.Client)
	w.Element("ProfileID", n.ProfileID)
	w.Markup("<Docs>")
	for _, id := range n.DocIDs {
		w.Element("ID", id)
	}
	w.Markup("</Docs>")
	if at := n.At.UnixNano(); at != 0 {
		w.IntElement("At", at)
	}
	w.OptElement("Composite", n.Composite)
	if n.Class != qos.ClassNormal {
		w.Element("Class", n.Class.String())
	}
	w.OptElement("Trace", n.Trace.String())
	w.RawElement("Event", event)
	w.Markup("<Contributing>")
	for _, raw := range contributing {
		w.RawElement("Event", raw)
	}
	w.Markup("</Contributing></Notification>")
}

// unmarshalNotification parses a persisted notification. Input outside
// xmlwire's dialect goes through encoding/xml instead.
func unmarshalNotification(raw []byte) (Notification, error) {
	var w walNotification
	if !w.scanXML(raw) {
		if err := xml.Unmarshal(raw, &w); err != nil {
			return Notification{}, fmt.Errorf("delivery: unmarshal notification: %w", err)
		}
	}
	return w.notification()
}

// scanXML decodes raw without reflection and reports whether it understood
// all of it; on false w is untouched.
func (w *walNotification) scanXML(raw []byte) bool {
	v := walNotification{XMLName: xml.Name{Local: "Notification"}}
	s := xmlwire.NewScanner(raw)
	for s.Root("Notification"); s.Next(); {
		switch string(s.Name()) {
		case "Client":
			v.Client = s.String()
		case "ProfileID":
			v.ProfileID = s.String()
		case "Docs":
			for s.Next() {
				if string(s.Name()) != "ID" {
					s.Reject()
					break
				}
				v.DocIDs = append(v.DocIDs, s.String())
			}
		case "At":
			v.AtNano = s.Int64()
		case "Composite":
			v.Composite = s.String()
		case "Class":
			v.Class = s.String()
		case "Trace":
			v.Trace = s.String()
		case "Event":
			v.Event.Inner = s.Raw()
		case "Contributing":
			for s.Next() {
				if string(s.Name()) != "Event" {
					s.Reject()
					break
				}
				v.Contributing = append(v.Contributing, rawXML{Inner: s.Raw()})
			}
		default:
			s.Reject()
		}
	}
	if !s.Done() {
		return false
	}
	*w = v
	return true
}

// notification converts the persisted form back to a Notification.
func (w *walNotification) notification() (Notification, error) {
	n := Notification{
		Client:    w.Client,
		ProfileID: w.ProfileID,
		DocIDs:    w.DocIDs,
		Composite: w.Composite,
	}
	// A class this build does not know (or a corrupt field) degrades to
	// normal rather than failing recovery.
	if class, err := qos.ParseClass(w.Class); err == nil {
		n.Class = class
	}
	// A malformed trace field degrades to untraced the same way.
	if tctx, ok := trace.Parse(w.Trace); ok {
		n.Trace = tctx
	}
	if w.AtNano != 0 {
		n.At = time.Unix(0, w.AtNano)
	}
	if len(w.Event.Inner) > 0 {
		ev, err := event.UnmarshalXMLBytes(w.Event.Inner)
		if err != nil {
			return Notification{}, fmt.Errorf("delivery: unmarshal event: %w", err)
		}
		n.Event = ev
	}
	for _, raw := range w.Contributing {
		ev, err := event.UnmarshalXMLBytes(raw.Inner)
		if err != nil {
			return Notification{}, fmt.Errorf("delivery: unmarshal contributing event: %w", err)
		}
		n.Contributing = append(n.Contributing, ev)
	}
	return n, nil
}
