package bgp

import "swift/internal/netaddr"

// maxPrefixesPerUpdate bounds how many /24s fit in one 4096-byte UPDATE
// alongside a worst-case attribute set. A /24 NLRI entry costs 4 bytes;
// we leave generous headroom for long AS paths and communities.
const maxPrefixesPerUpdate = 600

// PackWithdrawals splits a withdrawal set into as few UPDATE messages as
// the 4096-byte limit allows. Withdrawals carry no attributes, so they
// always pack maximally — this is why real bursts deliver withdrawals
// faster than path updates (§2.1.1).
func PackWithdrawals(prefixes []netaddr.Prefix) []*Update {
	var out []*Update
	for len(prefixes) > 0 {
		n := len(prefixes)
		if n > maxPrefixesPerUpdate {
			n = maxPrefixesPerUpdate
		}
		out = append(out, &Update{Withdrawn: append([]netaddr.Prefix(nil), prefixes[:n]...)})
		prefixes = prefixes[n:]
	}
	return out
}
