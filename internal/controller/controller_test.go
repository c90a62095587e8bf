package controller

import (
	"net"
	"testing"
	"time"

	"swift/internal/bgp"
	"swift/internal/bgpd"
	"swift/internal/bgpsim"
	"swift/internal/inference"
	"swift/internal/netaddr"
	swiftengine "swift/internal/swift"
	"swift/internal/topology"
)

// livePair returns two established sessions over an in-memory pipe.
func livePair(t *testing.T) (*bgpd.Session, *bgpd.Session) {
	t.Helper()
	c1, c2 := net.Pipe()
	type res struct {
		s   *bgpd.Session
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := bgpd.Establish(c1, bgpd.Config{LocalAS: 1, RouterID: 1})
		ch <- res{s, err}
	}()
	peer, err := bgpd.Establish(c2, bgpd.Config{LocalAS: 2, RouterID: 2})
	if err != nil {
		t.Fatal(err)
	}
	local := <-ch
	if local.err != nil {
		t.Fatal(local.err)
	}
	t.Cleanup(func() {
		local.s.Close()
		peer.Close()
	})
	return local.s, peer
}

// TestLiveBurstReroute drives the full §7 pipeline over a real BGP
// session: the peer replays the Fig. 1 burst as wire UPDATEs, a
// bgpd.Source lowers the session into a Fleet, and the peer's engine
// detects the burst, infers (5,6) and programs the data plane while the
// burst is still arriving.
func TestLiveBurstReroute(t *testing.T) {
	scale := 1000
	netw := bgpsim.Fig1Network(scale)
	sols := netw.Solve(netw.Graph)

	// The factory leaves PrimaryNeighbor unset, as swiftd's does: the
	// fleet makes it the peer's AS. A fixed 0 installs no primary rule,
	// and the engine forwards nothing.
	fleet := NewFleet(FleetConfig{Engine: func(PeerKey) swiftengine.Config {
		cfg := swiftengine.Config{LocalAS: 1}
		cfg.Inference = inference.Default()
		cfg.Inference.TriggerEvery = 250
		cfg.Inference.UseHistory = false
		cfg.Encoding.MinPrefixes = 100
		cfg.Burst.StartThreshold = 100
		return cfg
	}})
	defer fleet.Close()

	local, peer := livePair(t)
	key := PeerKey{AS: local.PeerAS(), BGPID: local.PeerID()}
	p := fleet.Peer(key)

	// Table transfer: primary from AS 2, alternates from AS 3 and 4.
	for origin := range netw.Origins {
		for _, nb := range []uint32{2, 3, 4} {
			r, ok := sols[origin].ExportTo(netw.Graph, netw.Policy, nb, 1)
			if !ok {
				continue
			}
			for i := 0; i < netw.Origins[origin]; i++ {
				if nb == 2 {
					p.LearnPrimary(netaddr.PrefixFor(origin, i), r.Path)
				} else {
					p.LearnAlternate(nb, netaddr.PrefixFor(origin, i), r.Path)
				}
			}
		}
	}
	if err := p.Provision(); err != nil {
		t.Fatal(err)
	}

	var nh uint32
	var ok bool
	p.Do(func(e *swiftengine.Engine) { nh, ok = e.FIB().ForwardPrefix(netaddr.PrefixFor(8, 0)) })
	if !ok || nh != 2 {
		t.Fatalf("pre-failure forward = %d %v, want next hop 2", nh, ok)
	}

	done := make(chan error, 1)
	go func() { done <- (&bgpd.Source{Peer: key, Updates: local.Updates()}).Run(fleet) }()

	// Replay the burst on the wire (squashed in time: the source stamps
	// arrival wall-clock, and we only need ordering).
	b, err := netw.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.DefaultTiming(3))
	if err != nil {
		t.Fatal(err)
	}
	var wd []netaddr.Prefix
	flushWd := func() {
		if len(wd) == 0 {
			return
		}
		for _, m := range bgp.PackWithdrawals(wd) {
			if err := peer.Send(m); err != nil {
				t.Errorf("send: %v", err)
			}
		}
		wd = wd[:0]
	}
	for _, ev := range b.Events {
		if ev.Kind == bgpsim.KindWithdraw {
			wd = append(wd, ev.Prefix)
			if len(wd) >= 400 {
				flushWd()
			}
		} else {
			flushWd()
			u := &bgp.Update{
				Attrs: bgp.Attrs{ASPath: ev.Path, HasNextHop: true, NextHop: 2},
				NLRI:  []netaddr.Prefix{ev.Prefix},
			}
			if err := peer.Send(u); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
	}
	flushWd()

	// Wait until the engine has drained the stream and decided.
	deadline := time.After(15 * time.Second)
	for {
		onLink := -1
		p.Do(func(e *swiftengine.Engine) { onLink = e.RIB().OnLink(topology.MakeLink(5, 6)) })
		if len(p.Decisions()) > 0 && onLink == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("fleet did not converge: %s", fleet.Status())
		case <-time.After(50 * time.Millisecond):
		}
	}

	ds := p.Decisions()
	last := ds[len(ds)-1]
	found := false
	for _, l := range last.Result.Links {
		if l == topology.MakeLink(5, 6) {
			found = true
		}
	}
	if !found {
		t.Errorf("final live inference = %v, want (5,6)", last.Result.Links)
	}

	// Closing the session ends the source cleanly.
	local.Close()
	if err := <-done; err != nil {
		t.Errorf("source: %v", err)
	}
}
