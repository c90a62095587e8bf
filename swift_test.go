package swift_test

import (
	"testing"
	"time"

	"swift"
)

// TestPublicAPIQuickstart exercises the facade exactly like the package
// documentation example: provision a small engine, replay a burst, and
// observe the inference.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := swift.Config{LocalAS: 1, PrimaryNeighbor: 2}
	cfg.Inference = swift.DefaultInference()
	cfg.Inference.TriggerEvery = 100
	cfg.Inference.UseHistory = false
	cfg.Encoding = swift.DefaultEncoding()
	cfg.Encoding.MinPrefixes = 50
	cfg.Burst = swift.BurstConfig{StartThreshold: 50, StopThreshold: 9}

	e := swift.New(cfg)
	// 500 prefixes via 2->5->6, alternates via 3.
	var prefixes []swift.Prefix
	for i := 0; i < 500; i++ {
		p, err := swift.ParsePrefix(dottedQuad(i))
		if err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, p)
		e.LearnPrimary(p, []uint32{2, 5, 6})
		e.LearnAlternate(3, p, []uint32{3, 6})
	}
	if err := e.Provision(); err != nil {
		t.Fatal(err)
	}

	if nh, ok := e.FIB().ForwardPrefix(prefixes[0]); !ok || nh != 2 {
		t.Fatalf("pre-failure next hop = %d, %v", nh, ok)
	}

	// The (5,6) link fails: withdrawals stream in.
	var batch swift.Batch
	for i, p := range prefixes[:400] {
		batch = append(batch, swift.WithdrawEvent(time.Duration(i)*time.Millisecond, p))
	}
	if err := e.Apply(batch); err != nil {
		t.Fatal(err)
	}
	ds := e.Decisions()
	if len(ds) == 0 {
		t.Fatal("no inference decisions")
	}
	found := false
	for _, l := range ds[0].Result.Links {
		if l == swift.MakeLink(5, 6) || l.Has(5) || l.Has(6) {
			found = true
		}
	}
	if !found {
		t.Errorf("inferred %v, expected links around (5,6)", ds[0].Result.Links)
	}
	// Survivors must be diverted to the backup.
	if nh, ok := e.FIB().ForwardPrefix(prefixes[450]); !ok || nh != 3 {
		t.Errorf("rerouted next hop = %d, %v; want 3", nh, ok)
	}
}

func dottedQuad(i int) string {
	return "10." + itoa(i/250%250) + "." + itoa(i%250) + ".0/24"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [4]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestFleetFacade drives the multi-peer API through the facade: a
// fleet of per-peer engines fed by batched observations, the way a
// BMP station delivers them.
func TestFleetFacade(t *testing.T) {
	fleet := swift.NewFleet(swift.FleetConfig{
		Engine: func(key swift.PeerKey) swift.Config {
			return swift.Config{LocalAS: 1, PrimaryNeighbor: key.AS}
		},
	})
	defer fleet.Close()

	key := swift.PeerKey{AS: 2, BGPID: 7}
	// The fleet is a Provisioner: table transfer goes through the same
	// surface a BMP table dump or an MRT RIB snapshot would use.
	p := swift.MustParsePrefix("192.0.2.0/24")
	fleet.Learn(key, p, []uint32{2, 5, 6})
	if err := fleet.Provision(key); err != nil {
		t.Fatal(err)
	}
	// And a Sink: events route on their peer key.
	if err := fleet.Apply(swift.Batch{swift.WithdrawEvent(time.Second, p).WithPeer(key)}); err != nil {
		t.Fatal(err)
	}
	fleet.Sync()
	if m := fleet.Metrics(); m.Peers != 1 || m.Withdrawals != 1 {
		t.Errorf("fleet metrics = %+v", m)
	}

	st := swift.NewBMPStation(swift.BMPStationConfig{Sink: fleet})
	if st.Sink() != swift.Sink(fleet) {
		t.Error("station not wired to the fleet")
	}
}

// TestEngineAndFleetAreSinks pins the redesign's core contract: the
// single-session Engine and the collector-scale Fleet are
// interchangeable behind the same Source.
func TestEngineAndFleetAreSinks(t *testing.T) {
	var sinks []swift.Sink
	e := swift.New(swift.Config{LocalAS: 1, PrimaryNeighbor: 2})
	fleet := swift.NewFleet(swift.FleetConfig{})
	defer fleet.Close()
	sinks = append(sinks, e, swift.NewSessionSink(e), fleet)
	p := swift.MustParsePrefix("192.0.2.0/24")
	for i, s := range sinks {
		if err := s.Apply(swift.Batch{swift.AnnounceEvent(time.Second, p, []uint32{2, 5})}); err != nil {
			t.Errorf("sink %d: %v", i, err)
		}
	}
	var _ swift.Provisioner = fleet
	var _ swift.Provisioner = swift.NewSessionSink(e)
}

func TestFacadeHelpers(t *testing.T) {
	p := swift.MustParsePrefix("192.0.2.0/24")
	if p.String() != "192.0.2.0/24" {
		t.Error("prefix round trip failed")
	}
	l := swift.MakeLink(9, 3)
	if l.A != 3 || l.B != 9 {
		t.Error("link not canonical")
	}
	if swift.DefaultInference().WWS != 3 {
		t.Error("default inference weights wrong")
	}
	if swift.DefaultEncoding().PathBits != 18 {
		t.Error("default encoding bits wrong")
	}
}
