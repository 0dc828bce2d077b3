package wayback

import (
	"strings"
	"testing"
)

func run(t testing.TB, cfg Config) *Results {
	t.Helper()
	study, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStudyRunFastPath(t *testing.T) {
	res := run(t, Config{Seed: 1, Scale: 200})
	if res.Stats.MatchedEvents == 0 {
		t.Fatal("no exploit events")
	}
	if res.Stats.DistinctCVEs != 63 {
		t.Errorf("distinct CVEs = %d, want 63", res.Stats.DistinctCVEs)
	}
	// Noise must exist and not be attributed.
	if res.Stats.Sessions <= res.Stats.MatchedEvents {
		t.Error("no unmatched (noise) sessions")
	}
	if len(res.Timelines) != 63 {
		t.Errorf("timelines = %d", len(res.Timelines))
	}
}

func TestPcapPathMatchesFastPath(t *testing.T) {
	fast := run(t, Config{Seed: 5, Scale: 1500})
	slow := run(t, Config{Seed: 5, Scale: 1500, Streaming: true})
	if fast.Stats.MatchedEvents != slow.Stats.MatchedEvents {
		t.Errorf("fast %d events, streamed capture %d", fast.Stats.MatchedEvents, slow.Stats.MatchedEvents)
	}
	if slow.Stats.DecodeErrors != 0 {
		t.Errorf("decode errors = %d", slow.Stats.DecodeErrors)
	}
}

func TestTablesRender(t *testing.T) {
	res := run(t, Config{Seed: 2, Scale: 300})
	for name, s := range map[string]string{
		"table1": res.Table1().String(),
		"table2": res.Table2().String(),
		"table3": res.Table3(),
		"table4": res.Table4().String(),
		"table5": res.Table5().String(),
		"table6": res.Table6().String(),
		"appE":   res.AppendixE().String(),
	} {
		if len(s) < 50 {
			t.Errorf("%s suspiciously short:\n%s", name, s)
		}
	}
	if !strings.Contains(res.Table4().String(), "V < A") {
		t.Error("Table 4 missing desiderata")
	}
}

func TestHeadlineNumbers(t *testing.T) {
	res := run(t, Config{Seed: 3, Scale: 100})
	if ms := res.MeanSkill(); ms < 0.35 || ms > 0.39 {
		t.Errorf("mean skill = %.3f, want ~0.37", ms)
	}
	if share := res.MitigatedShare(); share < 0.9 {
		t.Errorf("mitigated share = %.3f", share)
	}
	f7 := res.Finding7()
	if f7.AfterSatisfied <= f7.BeforeSatisfied {
		t.Error("Finding 7 counterfactual did not improve")
	}
	kev := res.KEVComparison()
	if kev.OverlapCount != 44 {
		t.Errorf("KEV overlap = %d", kev.OverlapCount)
	}
}

func TestFiguresPopulated(t *testing.T) {
	res := run(t, Config{Seed: 4, Scale: 100})
	if res.Figure1().Total() != 63 {
		t.Errorf("Figure 1 total = %d, want 63", res.Figure1().Total())
	}
	if got := len(res.Figure2()); got != 3 {
		t.Errorf("Figure 2 series = %d", got)
	}
	if res.Figure3().Total() == 0 || res.Figure4().Total() == 0 {
		t.Error("timeline figures empty")
	}
	if got := len(res.Figure5()); got != 3 {
		t.Errorf("Figure 5 CDFs = %d", got)
	}
	if got := len(res.Figures13to18()); got != 6 {
		t.Errorf("appendix CDFs = %d", got)
	}
	f6 := res.Figure6()
	sum := 0
	for i := range f6.Mitigated {
		sum += f6.Mitigated[i] + f6.Unmit[i]
	}
	if sum == 0 {
		t.Error("Figure 6 empty")
	}
	f7 := res.Figure7()
	if f7.Mitigated == nil || f7.Unmit == nil {
		t.Error("Figure 7 missing curves")
	}
	if res.Figure8().CDF == nil || res.Figure12().CDF == nil {
		t.Error("case-study CDFs missing")
	}
	if got := len(res.Figure9()); got != 5 {
		t.Errorf("Figure 9 groups = %d", got)
	}
	if len(res.Figure10().Points) == 0 || len(res.Figure11().Points) == 0 {
		t.Error("KEV figures empty")
	}
}

func TestPipelineTimelines(t *testing.T) {
	res := run(t, Config{Seed: 6, Scale: 100, PipelineTimelines: true})
	if len(res.Timelines) != 63 {
		t.Fatalf("pipeline timelines = %d, want 63 (every CVE has traffic)", len(res.Timelines))
	}
	// Pipeline-derived Table 4 must agree with the appendix-derived one on
	// the F < P rate: the rule publication dates come from the same data.
	appendix := run(t, Config{Seed: 6, Scale: 100})
	var pipeFP, appFP float64
	for _, r := range res.Table4Results() {
		if r.Pair.String() == "F < P" {
			pipeFP = r.Satisfied
		}
	}
	for _, r := range appendix.Table4Results() {
		if r.Pair.String() == "F < P" {
			appFP = r.Satisfied
		}
	}
	if diff := pipeFP - appFP; diff > 0.03 || diff < -0.03 {
		t.Errorf("pipeline F<P %.3f vs appendix %.3f", pipeFP, appFP)
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, Config{Seed: 9, Scale: 400})
	b := run(t, Config{Seed: 9, Scale: 400})
	if a.Stats != b.Stats {
		t.Errorf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatal("event counts differ")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestPortSensitiveAblation(t *testing.T) {
	insensitive := run(t, Config{Seed: 7, Scale: 300})
	sensitive := run(t, Config{Seed: 7, Scale: 300, PortSensitive: true})
	// Port-sensitive matching must miss the off-port exploit traffic
	// (~20% of the workload sprays non-standard ports).
	if sensitive.Stats.MatchedEvents >= insensitive.Stats.MatchedEvents {
		t.Errorf("port-sensitive %d >= insensitive %d",
			sensitive.Stats.MatchedEvents, insensitive.Stats.MatchedEvents)
	}
	lost := 1 - float64(sensitive.Stats.MatchedEvents)/float64(insensitive.Stats.MatchedEvents)
	if lost < 0.08 || lost > 0.35 {
		t.Errorf("port-sensitivity recall loss = %.3f, want ~0.2", lost)
	}
}

func TestDisclosureArtifacts(t *testing.T) {
	res := run(t, Config{Seed: 1, Scale: 500})
	corpus, err := res.DisclosureArtifacts()
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 63 {
		t.Fatalf("corpus = %d", len(corpus))
	}
}

func TestTransferScan(t *testing.T) {
	res := run(t, Config{Seed: 1, Scale: 100})
	rep := res.TransferScan(5)
	if rep.Sessions == 0 {
		t.Fatal("no sessions scanned")
	}
	if rep.Matched == 0 {
		t.Error("no held-out exploit traffic recognized")
	}
	// The workload sprays ~20% of exploit sessions off-port, so novel-
	// domain hits must appear.
	if len(rep.NovelDomain) == 0 {
		t.Error("no novel-domain applications detected")
	}
}

func TestAuditThroughFacade(t *testing.T) {
	study, err := NewStudy(Config{Seed: 1, Scale: 500})
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	leading := res.AuditLeadingMatches(study.RulePublications())
	// Appendix E has 8 CVEs with D < P plus several with A < D; leading
	// matches must include the F5 rule-leading case.
	found := false
	for _, lm := range leading {
		if lm.CVE == "2022-1388" {
			found = true
		}
	}
	if !found && len(leading) == 0 {
		t.Error("no leading matches surfaced")
	}
}

// The paper's signature-filtering step: with legacy traffic present, the
// filtered study sees exactly the 63 in-window CVEs while the unfiltered
// ablation additionally attributes longstanding CVEs.
func TestSignatureFilteringAblation(t *testing.T) {
	filtered := run(t, Config{Seed: 11, Scale: 300, LegacyScans: 120})
	if filtered.Stats.DistinctCVEs != 63 {
		t.Errorf("filtered distinct CVEs = %d, want 63", filtered.Stats.DistinctCVEs)
	}
	for _, ev := range filtered.Events {
		if ev.CVE != "" && (ev.CVE[0:3] == "201" || ev.CVE[0:5] == "2020-") {
			t.Fatalf("filtered study attributed legacy CVE-%s", ev.CVE)
		}
	}

	unfiltered := run(t, Config{Seed: 11, Scale: 300, LegacyScans: 120, UnfilteredRules: true})
	if unfiltered.Stats.DistinctCVEs <= 63 {
		t.Errorf("unfiltered distinct CVEs = %d, want > 63", unfiltered.Stats.DistinctCVEs)
	}
	if unfiltered.Stats.MatchedEvents <= filtered.Stats.MatchedEvents {
		t.Error("unfiltered engine should attribute the legacy traffic too")
	}
	legacy := unfiltered.Stats.MatchedEvents - filtered.Stats.MatchedEvents
	if legacy < 100 {
		t.Errorf("legacy attributions = %d, want ~120", legacy)
	}
}

func TestWriteReport(t *testing.T) {
	res := run(t, Config{Seed: 1, Scale: 300})
	var buf strings.Builder
	if err := res.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 4", "Mean skill", "Finding 7", "KEV comparison",
		"V < A", "per-event D < A", "Skill trend",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestPcapPathWithLegacyTraffic(t *testing.T) {
	// The full packet path and the fast path agree with legacy traffic in
	// the capture too.
	fast := run(t, Config{Seed: 13, Scale: 1500, LegacyScans: 30})
	slow := run(t, Config{Seed: 13, Scale: 1500, LegacyScans: 30, Streaming: true})
	if fast.Stats.MatchedEvents != slow.Stats.MatchedEvents {
		t.Errorf("fast %d vs streamed capture %d", fast.Stats.MatchedEvents, slow.Stats.MatchedEvents)
	}
	if fast.Stats.DistinctCVEs != 63 || slow.Stats.DistinctCVEs != 63 {
		t.Errorf("distinct CVEs %d / %d", fast.Stats.DistinctCVEs, slow.Stats.DistinctCVEs)
	}
}
