package trace

import (
	"io"
	"maps"
	"slices"
	"time"

	"swift/internal/bgp"
	"swift/internal/bgpsim"
	"swift/internal/mrt"
	"swift/internal/netaddr"
)

// Epoch is the nominal start of every synthesized capture — the first
// day of the paper's measurement month.
var Epoch = time.Date(2016, 11, 1, 0, 0, 0, 0, time.UTC)

// WriteSessionRIB dumps a session's initial table as TABLE_DUMP_V2
// records, the format RouteViews RIB snapshots use. Origins are written
// in ascending order, so one dataset always exports the same bytes.
func (ds *Dataset) WriteSessionRIB(w io.Writer, s Session) (records int, err error) {
	mw := mrt.NewWriter(w)
	if err := mw.WritePeerIndexTable(Epoch, s.Vantage, []mrt.PeerEntry{
		{ID: s.Neighbor, IP: 0x0a000001, AS: s.Neighbor},
	}); err != nil {
		return 0, err
	}
	rib := ds.SessionRIB(s)
	seq := uint32(0)
	for _, origin := range slices.Sorted(maps.Keys(rib)) {
		path := rib[origin]
		for i := 0; i < ds.Net.Origins[origin]; i++ {
			rec := &mrt.RIBRecord{
				Sequence: seq,
				Prefix:   netaddr.PrefixFor(origin, i),
				Entries: []mrt.RIBEntry{{
					PeerIndex:  0,
					Originated: Epoch.Add(-24 * time.Hour),
					Attrs: bgp.Attrs{
						ASPath:     path,
						HasNextHop: true,
						NextHop:    0x0a000001,
					},
				}},
			}
			seq++
			if err := mw.WriteRIBIPv4(Epoch, rec); err != nil {
				return int(seq), err
			}
		}
	}
	return int(seq), mw.Flush()
}

// WriteSessionUpdates dumps every burst the session observes (at least
// minBurst withdrawals) as BGP4MP update records, packing withdrawals
// into shared UPDATE messages like a real speaker. It returns the
// number of MRT records written.
func (ds *Dataset) WriteSessionUpdates(w io.Writer, s Session, minBurst int) (records, bursts int, err error) {
	mw := mrt.NewWriter(w)
	for i := range ds.Failures {
		d := ds.Delta(i)
		wd, _ := ds.Base.BurstSizeAt(d, s.Vantage, s.Neighbor)
		if wd < minBurst {
			continue
		}
		tm := ds.Cfg.Timing
		tm.Seed = ds.Cfg.Seed ^ int64(i)<<20 ^ int64(s.Vantage)<<8 ^ int64(s.Neighbor)
		b := ds.Base.BurstAt(d, s.Vantage, s.Neighbor, tm)
		bursts++
		at := Epoch.Add(ds.Failures[i].At)

		var batch []netaddr.Prefix
		var batchAt time.Time
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			for _, u := range bgp.PackWithdrawals(batch) {
				if err := mw.WriteBGP4MP(batchAt, s.Neighbor, s.Vantage, 0x0a000001, 0x0a000002, u); err != nil {
					return err
				}
				records++
			}
			batch = batch[:0]
			return nil
		}
		for _, ev := range b.Events {
			ts := at.Add(ev.At)
			if ev.Kind == bgpsim.KindWithdraw {
				if len(batch) == 0 {
					batchAt = ts
				}
				batch = append(batch, ev.Prefix)
				if len(batch) >= 500 {
					if err := flush(); err != nil {
						return records, bursts, err
					}
				}
				continue
			}
			if err := flush(); err != nil {
				return records, bursts, err
			}
			u := &bgp.Update{
				Attrs: bgp.Attrs{ASPath: ev.Path, HasNextHop: true, NextHop: 0x0a000001},
				NLRI:  []netaddr.Prefix{ev.Prefix},
			}
			if err := mw.WriteBGP4MP(ts, s.Neighbor, s.Vantage, 0x0a000001, 0x0a000002, u); err != nil {
				return records, bursts, err
			}
			records++
		}
		if err := flush(); err != nil {
			return records, bursts, err
		}
	}
	return records, bursts, mw.Flush()
}
