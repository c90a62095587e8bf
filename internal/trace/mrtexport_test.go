package trace

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"swift/internal/bgp"
	"swift/internal/mrt"
	"swift/internal/netaddr"
)

// TestMRTRoundTripRIB reads the exported snapshot back through the
// production TABLE_DUMP_V2 walker and checks it holds exactly the
// session's table: every prefix of every origin, on its path.
func TestMRTRoundTripRIB(t *testing.T) {
	ds := Generate(smallConfig(21))
	s := ds.Sessions[0]

	var buf bytes.Buffer
	written, err := ds.WriteSessionRIB(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if written == 0 {
		t.Fatal("empty RIB")
	}
	got := make(map[netaddr.Prefix][]uint32)
	read := 0
	err = mrt.WalkRIBIPv4(&buf, func(rr *mrt.RIBRecord) error {
		for _, e := range rr.Entries {
			got[rr.Prefix] = e.Attrs.ASPath
			read++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if read != written || len(got) != written {
		t.Fatalf("read %d records over %d prefixes, wrote %d", read, len(got), written)
	}
	for origin, path := range ds.SessionRIB(s) {
		for i := 0; i < ds.Net.Origins[origin]; i++ {
			p := netaddr.PrefixFor(origin, i)
			if gp, ok := got[p]; !ok || !slices.Equal(gp, path) {
				t.Fatalf("prefix %v: read path %v (present %v), table has %v", p, gp, ok, path)
			}
		}
	}
}

// TestWriteSessionRIBDeterministic: two datasets generated from one
// seed export byte-identical snapshots.
func TestWriteSessionRIBDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	dsA, dsB := Generate(smallConfig(21)), Generate(smallConfig(21))
	if _, err := dsA.WriteSessionRIB(&a, dsA.Sessions[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := dsB.WriteSessionRIB(&b, dsB.Sessions[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("one seed exported two different RIB snapshots")
	}
}

// TestMRTRoundTripUpdates reads the exported bursts back through the
// production BGP4MP reader and UPDATE decoder.
func TestMRTRoundTripUpdates(t *testing.T) {
	ds := Generate(smallConfig(23))
	// Find a session with bursts.
	census := ds.Census(200)
	if len(census) == 0 {
		t.Skip("no bursts at this scale")
	}
	s := census[0].Session

	var buf bytes.Buffer
	records, bursts, err := ds.WriteSessionUpdates(&buf, s, 200)
	if err != nil {
		t.Fatal(err)
	}
	if bursts == 0 || records == 0 {
		t.Fatalf("bursts=%d records=%d", bursts, records)
	}

	mr := mrt.NewReader(&buf)
	var d bgp.UpdateDecoder
	var read, withdrawals, announces int
	for {
		m, err := mr.NextBGP4MP()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		read++
		if m.Header.Type != bgp.TypeUpdate {
			t.Fatalf("record %d: BGP message type %d, want UPDATE", read, m.Header.Type)
		}
		if err := d.Decode(m.Body); err != nil {
			t.Fatalf("record %d: %v", read, err)
		}
		withdrawals += len(d.Withdrawn)
		announces += len(d.NLRI)
		if len(d.NLRI) > 0 && len(d.Attrs.ASPath) == 0 {
			t.Error("announcement without AS path")
		}
	}
	if read != records {
		t.Fatalf("read %d records, wrote %d", read, records)
	}
	if announces == 0 {
		t.Error("no announcements in the bursts")
	}
	// The file must contain each burst's withdrawals.
	expected := 0
	for _, st := range census {
		if st.Session == s {
			expected += st.Withdrawals
		}
	}
	if withdrawals != expected {
		t.Errorf("withdrawals = %d, census says %d", withdrawals, expected)
	}
}
