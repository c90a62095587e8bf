// Live-session example: the §7 deployment over a real TCP BGP session
// on localhost. A "peer" speaker (playing AS 2's router) establishes a
// session with the SWIFT controller, then replays the Fig. 1 burst on
// the wire as packed UPDATE messages. A bgpd.Source lowers the session
// into one engine — the same source swiftd runs into a fleet — which
// detects the burst, infers the failed link and programs the data plane
// live; the engine's Observer hook pushes each decision to the example
// the moment it happens — no polling.
//
// Run: go run ./examples/live-session
package main

import (
	"fmt"
	"net"
	"time"

	"swift"
	"swift/internal/bgp"
	"swift/internal/bgpd"
	"swift/internal/bgpsim"
	"swift/internal/netaddr"
	"swift/internal/topology"
)

func main() {
	const scale = 2000
	netw := bgpsim.Fig1Network(scale)
	sols := netw.Solve(netw.Graph)

	// SWIFT engine for AS 1. Decisions are pushed over a channel by the
	// Observer hook; the example reads only the first, so later ones are
	// dropped rather than block the engine.
	decisions := make(chan swift.Decision, 1)
	cfg := swift.Config{LocalAS: 1, PrimaryNeighbor: 2}
	cfg.Inference = swift.DefaultInference()
	cfg.Inference.TriggerEvery = 500
	cfg.Inference.UseHistory = false
	cfg.Encoding = swift.DefaultEncoding()
	cfg.Encoding.MinPrefixes = 200
	cfg.Burst = swift.BurstConfig{StartThreshold: 200, StopThreshold: 9}
	cfg.Observer.OnDecision = func(d swift.Decision) {
		select {
		case decisions <- d:
		default:
		}
	}
	engine := swift.New(cfg)

	// Preload the table and the alternates (in a full deployment these
	// come from the sessions' table transfers). The engine is then
	// provisioned, so the source skips its own transfer.
	for origin := range netw.Origins {
		for _, nb := range []uint32{2, 3, 4} {
			r, ok := sols[origin].ExportTo(netw.Graph, netw.Policy, nb, 1)
			if !ok {
				continue
			}
			for i := 0; i < netw.Origins[origin]; i++ {
				if nb == 2 {
					engine.LearnPrimary(netaddr.PrefixFor(origin, i), r.Path)
				} else {
					engine.LearnAlternate(nb, netaddr.PrefixFor(origin, i), r.Path)
				}
			}
		}
	}
	if err := engine.Provision(); err != nil {
		panic(err)
	}
	fmt.Printf("controller provisioned: %d prefixes\n", engine.RIB().Len())

	// Real TCP session on localhost.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer l.Close()
	peerReady := make(chan *bgpd.Session, 1)
	go func() {
		s, err := bgpd.Dial(l.Addr().String(), bgpd.Config{LocalAS: 2, RouterID: 2})
		if err != nil {
			panic(err)
		}
		peerReady <- s
	}()
	local, err := bgpd.Accept(l, bgpd.Config{LocalAS: 1, RouterID: 1})
	if err != nil {
		panic(err)
	}
	peer := <-peerReady
	defer peer.Close()
	fmt.Printf("BGP session established over %s (peer AS%d)\n\n", l.Addr(), local.PeerAS())

	// The source does not care whether its sink is one engine or a fleet.
	src := &bgpd.Source{
		Peer:    swift.PeerKey{AS: local.PeerAS(), BGPID: local.PeerID()},
		Updates: local.Updates(),
	}
	srcDone := make(chan error, 1)
	go func() { srcDone <- src.Run(swift.NewSessionSink(engine)) }()

	// AS 2's router replays the (5,6) failure burst on the wire.
	b, err := netw.ReplayLinkFailure(1, 2, topology.MakeLink(5, 6), bgpsim.TestbedTiming(9))
	if err != nil {
		panic(err)
	}
	fmt.Printf("peer replays the burst: %d withdrawals, %d updates\n", b.Size, len(b.Events)-b.Size)
	var batch []netaddr.Prefix
	flush := func() {
		for _, m := range bgp.PackWithdrawals(batch) {
			if err := peer.Send(m); err != nil {
				panic(err)
			}
		}
		batch = batch[:0]
	}
	for _, ev := range b.Events {
		if ev.Kind == bgpsim.KindWithdraw {
			batch = append(batch, ev.Prefix)
			if len(batch) >= 500 {
				flush()
			}
			continue
		}
		flush()
		if err := peer.Send(&bgp.Update{
			Attrs: bgp.Attrs{ASPath: ev.Path, HasNextHop: true, NextHop: 2},
			NLRI:  []netaddr.Prefix{ev.Prefix},
		}); err != nil {
			panic(err)
		}
	}
	flush()

	// The observer pushes the first inference as soon as the source
	// drains it off the socket.
	fmt.Println()
	select {
	case d := <-decisions:
		fmt.Printf("live inference: links %v after %d withdrawals, %d rules installed\n",
			d.Result.Links, d.Result.Received, d.RulesInstalled)
	case <-time.After(10 * time.Second):
		fmt.Println("no inference within 10s")
	}

	// Closing our end of the session ends the source; the engine is
	// ours again once it has returned.
	local.Close()
	if err := <-srcDone; err != nil {
		panic(err)
	}
	fmt.Printf("final: rib=%d prefixes, rules=%d, decisions=%d, rerouting=%v\n",
		engine.RIB().Len(), engine.FIB().NumRules(), engine.NumDecisions(), engine.RerouteActive())
}
