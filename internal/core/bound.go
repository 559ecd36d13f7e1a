package core

import (
	"fmt"

	"twochains/internal/mailbox"
)

// Bound is a channel-scoped pre-resolved function handle: the element is
// looked up once, its travelling image is bound against the receiver
// namespace once (via the sender node's shared prepared-jam cache), and
// the receiver-side IDs for Local Function invocation are resolved once.
// Every subsequent send through the handle skips string resolution
// entirely — the bind-once/call-many idiom the paper's design implies.
//
// Handles survive receiver-side RIED hot-swaps: when the channel's
// namespace fingerprint moves (RefreshNames after an InstallRied), the
// next send re-binds through the jam cache, exactly as a fresh string
// lookup would.
//
// Bound is the channel-level invocation surface (resolved by string via
// Channel.Handle) and the engine under the tc.Func public API (which
// holds one handle per destination).
type Bound struct {
	ch                *Channel
	pkgName, elemName string

	// Injection state: the prepared image and the namespace fingerprint
	// it was bound against. Re-prepared when the channel's fingerprint
	// moves (hot-swap) — the cache makes that a lookup, not a re-bind,
	// unless the namespace is genuinely new.
	pj *preparedJam
	fp uint64

	// Local Function state: the receiver's package and element IDs.
	localPkg, localElem uint8
	localOK             bool

	// msgScratch is the reusable frame-pointer scratch for Send: the
	// sender never retains the slice (stalled messages are queued
	// individually), so one per-handle buffer serves every batch.
	msgScratch []*mailbox.Message

	// injectCnt counts single injects through this handle for the
	// auto-switch heuristic (ChannelOptions.AutoSwitchAfter).
	injectCnt int
}

// Handle returns the cached per-channel handle without forcing a bind:
// error semantics stay lazy and per-path (an inject bind failure does
// not poison Local Function sends through the same handle).
func (ch *Channel) Handle(pkgName, elemName string) *Bound {
	key := [2]string{pkgName, elemName}
	if b, ok := ch.bounds[key]; ok {
		return b
	}
	b := &Bound{ch: ch, pkgName: pkgName, elemName: elemName}
	ch.bounds[key] = b
	return b
}

// Channel returns the channel the handle sends on.
func (b *Bound) Channel() *Channel { return b.ch }

// CreditStalls reports the channel sender's cumulative credit-stall
// count — the flow-control telemetry tenant admission feeds on. Reading
// it is shard-safe from the source node's shard (the sender lives
// there).
func (b *Bound) CreditStalls() uint64 { return b.ch.Sender.Stats().CreditStalls }

// ensureInject makes the prepared image current for the channel's
// receiver namespace.
func (b *Bound) ensureInject() error {
	if b.pj != nil && b.fp == b.ch.remoteFP {
		return nil
	}
	pj, err := b.ch.prepareJam(b.pkgName, b.elemName)
	if err != nil {
		return err
	}
	b.pj, b.fp = pj, b.ch.remoteFP
	return nil
}

// ensureLocal resolves the receiver-side IDs once.
func (b *Bound) ensureLocal() error {
	if b.localOK {
		return nil
	}
	ch := b.ch
	inst, ok := ch.Dst.Package(b.pkgName)
	if !ok {
		return fmt.Errorf("core: %s->%s: package %s not installed on receiver",
			ch.Src.Name, ch.Dst.Name, b.pkgName)
	}
	elem, ok := inst.Pkg.Element(b.elemName)
	if !ok || elem.Kind != ElemJam {
		return fmt.Errorf("core: %s->%s: no jam %q in package %s",
			ch.Src.Name, ch.Dst.Name, b.elemName, b.pkgName)
	}
	b.localPkg, b.localElem = inst.ID, elem.ID
	b.localOK = true
	return nil
}

// fillInjected writes the wire message for the current prepared image
// into a pooled frame.
func (b *Bound) fillInjected(m *mailbox.Message, args [2]uint64, usr []byte) {
	pj := b.pj
	m.Kind = mailbox.KindInjected
	m.PkgID = pj.pkgID
	m.ElemID = pj.elemID
	m.JamImage = pj.image
	m.GotTableLen = pj.gotLen
	m.TextLen = pj.textLen
	m.EntryOff = pj.entry
	m.Patches = pj.patches
	m.Args = args
	m.Usr = usr
}

// fillLocal writes the Local Function wire message into a pooled frame.
func (b *Bound) fillLocal(m *mailbox.Message, args [2]uint64, usr []byte) {
	m.Kind = mailbox.KindLocal
	m.PkgID = b.localPkg
	m.ElemID = b.localElem
	m.Args = args
	m.Usr = usr
}

// scratchMsgs returns the per-handle scratch sized for an n-message batch.
func (b *Bound) scratchMsgs(n int) []*mailbox.Message {
	if cap(b.msgScratch) < n {
		b.msgScratch = make([]*mailbox.Message, n)
	}
	return b.msgScratch[:n]
}

// takeAutoSwitch counts one single inject through the handle and reports
// whether the auto-switch policy (ChannelOptions.AutoSwitchAfter, the
// paper's §VIII future-work optimization) downgrades it to a Local
// Function call: the function has reoccurred often enough and the
// receiver is known to hold the package, so shipping its code again is
// waste. Bursts never auto-switch — they are an explicit bulk-injection
// choice.
func (b *Bound) takeAutoSwitch() bool {
	after := b.ch.Opts.AutoSwitchAfter
	if after <= 0 {
		return false
	}
	b.injectCnt++
	if b.injectCnt <= after {
		return false
	}
	_, ok := b.ch.Dst.Package(b.pkgName)
	return ok
}

// Send is the handle's one issue path: it sends one active message per
// batch entry, reporting each completion through the mailbox-level
// SendInfo callback (one pooled frame per message, released by the
// sender after packing, so the steady-state path allocates nothing).
// kind selects the invocation method: mailbox.KindInjected ships the
// pre-bound code in the frame; mailbox.KindLocal ships only the
// receiver-side package and element IDs. A single call is a batch of
// one.
//
// The batch goes out as one batched operation whose contiguous frame
// slots coalesce into single puts. burst only gates the auto-switch: a
// burst never auto-switches, while an injected non-burst send counts
// once toward the auto-switch policy, which may send it as a Local
// Function message instead. An empty batch sends nothing. Binding is
// lazy and per method: an inject bind failure does not poison Local
// Function sends through the same handle.
func (b *Bound) Send(kind uint8, batch [][2]uint64, burst bool, usr []byte, done func(mailbox.SendInfo)) error {
	if len(batch) == 0 {
		return nil
	}
	if err := b.ch.checkUp(); err != nil {
		return err
	}
	if kind == mailbox.KindInjected && !burst && b.takeAutoSwitch() {
		kind = mailbox.KindLocal
	}
	var err error
	switch kind {
	case mailbox.KindInjected:
		err = b.ensureInject()
	case mailbox.KindLocal:
		err = b.ensureLocal()
	default:
		err = fmt.Errorf("core: %s->%s: message kind %d is not an invocation", b.ch.Src.Name, b.ch.Dst.Name, kind)
	}
	if err != nil {
		return err
	}
	snd := b.ch.Sender
	msgs := b.scratchMsgs(len(batch))
	for i, args := range batch {
		m := snd.GetMessage()
		if kind == mailbox.KindInjected {
			b.fillInjected(m, args, usr)
		} else {
			b.fillLocal(m, args, usr)
		}
		msgs[i] = m
	}
	snd.SendBatch(msgs, done)
	return nil
}
