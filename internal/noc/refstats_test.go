package noc

// The reference engine's statistics accounting: Stats built up front with
// a per-communication map, read and written once per delivered packet —
// the historical accounting the production engine replaced with dense
// per-communication slots folded into PerComm at finalize. refsim_test.go
// calls these.

import "repro/internal/route"

func newStats(r route.Routing, cfg Config) *Stats {
	space := r.Topology().LinkIDSpace()
	st := &Stats{
		Horizon:         cfg.Horizon,
		Warmup:          cfg.Warmup,
		PerComm:         make(map[int]CommStats),
		LinkUtilization: make([]float64, space),
		LinkFreq:        make([]float64, space),
	}
	for _, fl := range r.Flows {
		cs := st.PerComm[fl.Comm.ID]
		cs.RequestedRate += fl.Comm.Rate
		st.PerComm[fl.Comm.ID] = cs
	}
	return st
}

func (st *Stats) deliver(commID int, injected, bits, now float64) {
	st.Delivered++
	if injected < st.Warmup {
		return
	}
	cs := st.PerComm[commID]
	cs.DeliveredBits += bits
	cs.Packets++
	lat := now - injected
	cs.TotalLatency += lat
	if lat > cs.MaxLatency {
		cs.MaxLatency = lat
	}
	st.PerComm[commID] = cs
}
