package core

import (
	"fmt"

	"twochains/internal/mailbox"
)

// ChannelOptions tune a sender-side connection.
type ChannelOptions struct {
	Sender mailbox.SenderConfig
	// AutoSwitchAfter, when positive, enables the paper's future-work
	// optimization (§VIII): after an element has been injected that many
	// times through a handle, the handle detects the reoccurring function
	// and switches to Local Function invocation, shrinking the message
	// (single sends only; bursts are an explicit bulk-injection choice).
	AutoSwitchAfter int
}

// Channel is one node's view of sending active messages to a peer. It owns
// the mailbox sender and the namespace mirror from the exchange step;
// prepared jam images live in the sender node's shared cache, so channels
// to identical receiver namespaces bind each element once between them.
type Channel struct {
	Src, Dst *Node
	// Recv is the destination mailbox region this channel writes into.
	Recv   *mailbox.Receiver
	Sender *mailbox.Sender
	Opts   ChannelOptions

	// remoteNames is the snapshot of the receiver's namespace obtained in
	// the out-of-band exchange; the sender binds travelling GOT entries
	// from it (paper §III-B: "set by the sender after an exchange with
	// the receiver"). remoteFP is its fingerprint, the jam-cache key.
	remoteNames map[string]uint64
	remoteFP    uint64

	// bounds caches this channel's pre-resolved handles, one per element
	// (see Bound). Keys are (pkg, elem) pairs, not built strings, so a
	// cache hit performs no allocation.
	bounds map[[2]string]*Bound

	// dead marks a channel severed by Mesh.FailNode: unlike Dst.down it
	// never clears — a rejoined node gets fresh channels (and fresh
	// mailbox regions), so handle caches holding this one must re-resolve.
	dead bool
}

// Dead reports whether the channel was severed by a node failure. A dead
// channel stays dead across the node's rejoin; callers caching Bound
// handles check it to know when to re-resolve through the mesh.
func (ch *Channel) Dead() bool { return ch.dead }

// preparedJam is a jam with its extern GOT entries bound to receiver VAs.
type preparedJam struct {
	image   []byte
	gotLen  int
	textLen int
	entry   uint32
	patches []mailbox.GotPatch
	pkgID   uint8
	elemID  uint8
}

// ConnectTo opens a channel from src into a specific mailbox region on
// dst. A region admits one remote writer, so mesh deployments arm one
// region per inbound channel (Node.AddMailbox) and connect each sender to
// its own.
func ConnectTo(src, dst *Node, recv *mailbox.Receiver, opts ChannelOptions) (*Channel, error) {
	return connectTo(src, dst, recv, opts, nil, 0)
}

// connectTo is ConnectTo with an optional pre-computed namespace exchange
// (names, fp): callers wiring many channels into one receiver node (the
// mesh) snapshot and fingerprint once and share it read-only.
func connectTo(src, dst *Node, recv *mailbox.Receiver, opts ChannelOptions, names map[string]uint64, fp uint64) (*Channel, error) {
	if recv == nil {
		return nil, fmt.Errorf("core: connect %s->%s: nil mailbox receiver", src.Name, dst.Name)
	}
	if opts.Sender.Geometry.FrameSize == 0 {
		opts.Sender.Geometry = recv.Cfg.Geometry
	}
	if opts.Sender.Geometry != recv.Cfg.Geometry {
		return nil, fmt.Errorf("core: connect %s->%s: geometry mismatch", src.Name, dst.Name)
	}
	opts.Sender.Credits = recv.Cfg.Credits

	ep := src.Worker.Connect(dst.Worker)
	snd, err := mailbox.NewSender(src.Worker, ep, opts.Sender,
		recv.BaseVA, recv.Mem.Key, src.Counter)
	if err != nil {
		return nil, err
	}
	ch := &Channel{
		Src:    src,
		Dst:    dst,
		Recv:   recv,
		Sender: snd,
		Opts:   opts,
		bounds: map[[2]string]*Bound{},
	}
	if opts.Sender.Credits {
		recv.SetCreditReturn(dst.Worker.Connect(src.Worker), snd.CreditVA, snd.CreditMem.Key)
	}
	if names != nil {
		ch.remoteNames, ch.remoteFP = names, fp
	} else {
		ch.RefreshNames()
	}
	return ch, nil
}

// RefreshNames re-runs the namespace exchange, picking up symbols from
// rieds loaded on the receiver since the last exchange. Prepared images
// bound against the old namespace stay in the sender's cache but are no
// longer referenced: the new fingerprint keys fresh bindings.
func (ch *Channel) RefreshNames() {
	ch.remoteNames = ch.Dst.NS.Snapshot()
	ch.remoteFP = nsFingerprint(ch.remoteNames)
}

// prepareJam returns the element's image bound against the remote
// namespace, via the sender node's shared cache.
func (ch *Channel) prepareJam(pkgName, elemName string) (*preparedJam, error) {
	return ch.Src.jams.prepare(ch.Src, pkgName, elemName, ch.Dst.Name, ch.remoteNames, ch.remoteFP)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// checkUp fails sends on a severed channel fast with the typed error:
// a torn-down receiver, a torn-down sender (a failed process issues
// nothing), or a channel severed by FailNode (dead stays set across the
// node's rejoin — a cached handle must re-resolve to the rebuilt channel).
func (ch *Channel) checkUp() error {
	switch {
	case ch.Dst.down || ch.dead:
		return &NodeDownError{Src: ch.Src.Name, Dst: ch.Dst.Name, Node: ch.Dst.Name}
	case ch.Src.down:
		return &NodeDownError{Src: ch.Src.Name, Dst: ch.Dst.Name, Node: ch.Src.Name}
	}
	return nil
}

// SendData sends a delivery-only frame (the without-execution mode used by
// the Fig. 5/6 overhead experiments). It fails fast, like a Bound send,
// when either end is torn down or the channel was severed.
func (ch *Channel) SendData(usr []byte, done func(mailbox.SendInfo)) error {
	if err := ch.checkUp(); err != nil {
		return err
	}
	ch.Sender.Send(mailbox.PackData(usr), done)
	return nil
}
