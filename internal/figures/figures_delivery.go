package figures

import (
	"fmt"

	"github.com/socialtube/socialtube/internal/emu"
	"github.com/socialtube/socialtube/internal/simnet"
	"github.com/socialtube/socialtube/internal/trace"
	"github.com/socialtube/socialtube/internal/vod"
)

// The paper plots each delivery metric twice — panel (a) on PeerSim, panel
// (b) on PlanetLab. Here a figure is stated once, over the vod.Ledger both
// substrates keep; the (a) and (b) registry entries differ only in the
// substrate that produced the ledgers.

// variant is one run a delivery figure asks for: its row label, the
// comparison system, and whether that system prefetches.
type variant struct {
	label, proto string
	prefetch     bool
}

var (
	// protoOrder is the comparison systems in the paper's plotting order.
	protoOrder = []string{"PA-VoD", "SocialTube", "NetTube"}
	// linkPair is Fig. 18's: the paper plots SocialTube against NetTube.
	linkPair = []string{"SocialTube", "NetTube"}
	// prefetchVariants is Fig. 17's: with and without prefetching, for the
	// systems that prefetch at all (the flag is inert for PA-VoD).
	prefetchVariants = []variant{
		{"PA-VoD", "PA-VoD", true},
		{"SocialTube w/ PF", "SocialTube", true},
		{"SocialTube w/o PF", "SocialTube", false},
		{"NetTube w/ PF", "NetTube", true},
		{"NetTube w/o PF", "NetTube", false},
	}
	emuModes = map[string]emu.Mode{
		"PA-VoD": emu.ModePAVoD, "SocialTube": emu.ModeSocialTube, "NetTube": emu.ModeNetTube,
	}
)

// protocolVariants is the plain comparison: each named system as shipped.
func protocolVariants(names []string) []variant {
	vs := make([]variant, len(names))
	for i, name := range names {
		vs[i] = variant{name, name, true}
	}
	return vs
}

// job is the variant as a simulation over the default network.
func (v variant) job() simJob {
	return simJob{
		label: v.label,
		build: func(s Scale, tr *trace.Trace) (vod.Protocol, error) { return s.protocol(v.proto, tr, v.prefetch) },
		net:   simnet.DefaultConfig(),
	}
}

// substrate is who produces a delivery figure's runs: the simulator (panel
// a) or the TCP emulation (panel b).
type substrate struct {
	panel, name string
	// run executes the variants and returns one ledger each, in order, plus
	// whatever tables the substrate appends below the figure's own; fig is
	// the figure's short name ("Fig. 16(a)").
	run func(fig string, vs []variant) ([]*vod.Ledger, []*Table, error)
}

// substrate runs the variants side by side on the discrete-event simulator
// and appends their counter summary.
func (s Scale) substrate(tr *trace.Trace) substrate {
	return substrate{"a", "simulator", func(fig string, vs []variant) ([]*vod.Ledger, []*Table, error) {
		jobs, names := make([]simJob, len(vs)), make([]string, len(vs))
		for i, v := range vs {
			jobs[i], names[i] = v.job(), v.label
		}
		results, err := s.runJobs(tr, jobs, nil)
		if err != nil {
			return nil, nil, err
		}
		ledgers := make([]*vod.Ledger, len(results))
		for i, r := range results {
			ledgers[i] = &r.Ledger
		}
		return ledgers, []*Table{countersTable(fig+" — protocol counters", names, results)}, nil
	}}
}

// emuSubstrate runs the variants one after another on loopback TCP
// clusters of the template base.
func emuSubstrate(base emu.ClusterConfig, tr *trace.Trace) substrate {
	return substrate{"b", "TCP emulation", func(_ string, vs []variant) ([]*vod.Ledger, []*Table, error) {
		ledgers := make([]*vod.Ledger, len(vs))
		for i, v := range vs {
			res, err := runMode(base, tr, emuModes[v.proto], func(c *emu.ClusterConfig) {
				if !v.prefetch {
					c.Peer.PrefetchCount = 0
				}
			})
			if err != nil {
				return nil, nil, err
			}
			ledgers[i] = &res.Ledger
		}
		return ledgers, nil, nil
	}}
}

// figure runs the variants on the substrate and renders figure num: rows
// fills the figure's own table from the ledgers, one per variant.
func (sub substrate) figure(num int, what string, vs []variant, headers []string, rows func(t *Table, ledgers []*vod.Ledger)) (*Report, error) {
	fig := fmt.Sprintf("Fig. %d(%s)", num, sub.panel)
	ledgers, extra, err := sub.run(fig, vs)
	if err != nil {
		return nil, err
	}
	t := NewTable(fmt.Sprintf("%s — %s (%s)", fig, what, sub.name), headers...)
	rows(t, ledgers)
	return &Report{Tables: append([]*Table{t}, extra...)}, nil
}

// fig16 prints the normalized peer bandwidth percentiles per protocol.
func fig16(sub substrate) (*Report, error) {
	vs := protocolVariants(protoOrder)
	return sub.figure(16, "normalized peer bandwidth", vs, []string{"protocol", "p1", "p50", "p99"},
		func(t *Table, ledgers []*vod.Ledger) {
			for i, l := range ledgers {
				p1, p50, p99 := l.NormalizedPeerBandwidthPercentiles()
				t.AddRow(vs[i].label, p1, p50, p99)
			}
		})
}

// fig17 prints startup delay with and without prefetching per protocol.
func fig17(sub substrate) (*Report, error) {
	return sub.figure(17, "startup delay", prefetchVariants, []string{"variant", "meanMs", "p50Ms", "p99Ms"},
		func(t *Table, ledgers []*vod.Ledger) {
			for i, l := range ledgers {
				d := l.StartupDelay.Summary()
				t.AddRow(prefetchVariants[i].label, d.Mean, d.P50, d.P99)
			}
		})
}

// fig18 prints maintenance overhead — mean links held — versus videos
// watched in a session.
func fig18(sub substrate) (*Report, error) {
	return sub.figure(18, "maintenance overhead vs videos watched", protocolVariants(linkPair),
		append([]string{"videosWatched"}, linkPair...),
		func(t *Table, ledgers []*vod.Ledger) {
			for k := range ledgers[0].LinksByVideoIndex {
				t.AddRow(k+1, ledgers[0].LinksByVideoIndex[k].Mean(), ledgers[1].LinksByVideoIndex[k].Mean())
			}
		})
}

// Fig16a, Fig17a and Fig18a are the simulator panels, each with the
// per-run counter summary; Fig16b, Fig17b and Fig18b the TCP emulation's.
func Fig16a(s Scale, tr *trace.Trace) (*Report, error) { return fig16(s.substrate(tr)) }
func Fig17a(s Scale, tr *trace.Trace) (*Report, error) { return fig17(s.substrate(tr)) }
func Fig18a(s Scale, tr *trace.Trace) (*Report, error) { return fig18(s.substrate(tr)) }

func Fig16b(c emu.ClusterConfig, tr *trace.Trace) (*Report, error) { return fig16(emuSubstrate(c, tr)) }
func Fig17b(c emu.ClusterConfig, tr *trace.Trace) (*Report, error) { return fig17(emuSubstrate(c, tr)) }
func Fig18b(c emu.ClusterConfig, tr *trace.Trace) (*Report, error) { return fig18(emuSubstrate(c, tr)) }
