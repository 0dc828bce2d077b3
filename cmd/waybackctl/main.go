// Command waybackctl runs the CVE Wayback Machine study and regenerates any
// of the paper's tables and figures.
//
// Usage:
//
//	waybackctl [flags] summary            # headline findings
//	waybackctl [flags] table {1|2|3|4|5|6|E}
//	waybackctl [flags] figure {1..18}
//	waybackctl [flags] finding7
//	waybackctl [flags] kev | audit | transfer | artifacts | kevfeed | trend | ci | report
//	waybackctl [flags] all -out DIR       # every table/figure as CSV
//	waybackctl [flags] replay FILE        # scan a pcap/pcapng capture with the dated ruleset
//	waybackctl [flags] asof -store DIR [-date D] [summary|table N|figure N|diff A B|skill A B [DAYS]]
//	waybackctl [flags] rules {publish -file F|show [-full]|rescan} {-addr URL|-dir DIR [-store DIR]}
//
// The rules command drives a versioned ruleset registry — publish a dated
// delta (to a live daemon over /v1/ruleset, or straight into a registry
// directory that daemons and sensors poll), inspect the current generation,
// or trigger the retroactive rescan that re-attributes already-ingested
// history under the earliest-published match.
//
// The asof command time-travels a live event store: it opens (or creates) a
// timeline of sealed segments and checkpoints next to the store and answers
// tables, figures, lifecycle diffs, and skill-over-time series as the study
// stood at -date, at the cost of the events since the nearest checkpoint.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/pcapio"
	"repro/internal/report"
	"repro/internal/rules"
	"repro/internal/scanner"
	"repro/internal/stats"
	"repro/internal/tcpasm"
	"repro/wayback"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "waybackctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("waybackctl", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "study seed")
	scale := fs.Int("scale", 50, "event volume divisor (1 = full 115k-event study)")
	streamFlag := fs.Bool("stream", false, "synthesize the capture lazily into the sharded scan (no pcap bytes materialized; identical output)")
	streamSegments := fs.Int("stream-segments", 0, "virtual capture segments for -stream (0 = min(8, GOMAXPROCS); output is identical for every value)")
	pipeline := fs.Bool("pipeline", false, "derive lifecycles from the measured pipeline instead of Appendix E")
	out := fs.String("out", "paper-out", "output directory for 'all'")
	rulesPath := fs.String("rules", "", "dated ruleset file for 'replay' (default: the built-in study ruleset)")
	reasmShards := fs.Int("reasm-shards", 0, "flow-sharded reassembly width (0 = min(8, GOMAXPROCS); output is identical for every value)")
	matchWorkers := fs.Int("match-workers", 0, "signature-matching worker pool size (0 = GOMAXPROCS)")
	overlapFlag := fs.String("overlap-policy", "first-wins", "reassembly policy for conflicting overlapping retransmits (first-wins | last-wins); conflicting sessions are flagged ambiguous either way")
	impairSpec := fs.String("impair", "", "seeded impairment profile applied to 'replay' captures, e.g. loss=0.01,dup=0.02,reorder=0.05,abort=0.001,mtu=1400,seed=7")
	if err := fs.Parse(args); err != nil {
		return err
	}
	overlap, err := tcpasm.ParseOverlapPolicy(*overlapFlag)
	if err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("missing command (summary | table N | figure N | finding7 | kev | all | replay FILE)")
	}
	if fs.Arg(0) == "replay" {
		return replay(fs.Args()[1:], *rulesPath, *reasmShards, *matchWorkers, overlap, *impairSpec)
	}
	if fs.Arg(0) == "asof" {
		return asof(fs.Args()[1:], wayback.Config{
			Seed: *seed, Scale: *scale, PipelineTimelines: *pipeline,
		})
	}
	if fs.Arg(0) == "rules" {
		return rulesCmd(fs.Args()[1:], wayback.Config{Seed: *seed, Scale: *scale})
	}

	study, err := wayback.NewStudy(wayback.Config{
		Seed: *seed, Scale: *scale, PipelineTimelines: *pipeline,
		Streaming: *streamFlag, StreamSegments: *streamSegments,
		ReasmShards: *reasmShards, MatchWorkers: *matchWorkers,
		OverlapPolicy: overlap,
	})
	if err != nil {
		return err
	}
	res, err := study.Run()
	if err != nil {
		return err
	}

	switch fs.Arg(0) {
	case "summary":
		return summary(res)
	case "table":
		return table(res, fs.Arg(1))
	case "figure":
		return figure(res, fs.Arg(1))
	case "finding7":
		f := res.Finding7()
		fmt.Printf("Finding 7 counterfactual (IDS vendor included in disclosure, 30-day window):\n")
		fmt.Printf("  D<A satisfied: %.2f -> %.2f\n", f.BeforeSatisfied, f.AfterSatisfied)
		fmt.Printf("  D<A skill:     %.2f -> %.2f (%+.0f%%)\n", f.BeforeSkill, f.AfterSkill, f.SkillImprovement*100)
		return nil
	case "kev":
		fmt.Print(report.KEVTable(res.KEVComparison()).String())
		return nil
	case "audit":
		leading := res.AuditLeadingMatches(study.RulePublications())
		fmt.Printf("rule-leading traffic (Section 3.2 root-cause review inputs): %d CVEs\n", len(leading))
		for _, lm := range leading {
			fmt.Printf("  CVE-%s sid:%d  first match %s, %.0f days before rule publication (%d/%d events lead)\n",
				lm.CVE, lm.SID, lm.FirstMatch.Format("2006-01-02"),
				lm.Lead.Hours()/24, lm.Events, lm.TotalEvents)
		}
		return nil
	case "transfer":
		rep := res.TransferScan(5)
		fmt.Printf("transferability scan (Finding 19): %d sessions, %d matched known families, %d on novel ports\n",
			rep.Sessions, rep.Matched, len(rep.NovelDomain))
		seen := map[string]int{}
		for _, m := range rep.NovelDomain {
			seen[m.Family]++
		}
		for fam, n := range seen {
			fmt.Printf("  %-18s %d novel-port applications\n", fam, n)
		}
		return nil
	case "report":
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*out, "report.md")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteReport(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	case "ci":
		results, err := core.BootstrapDesiderata(res.Timelines, core.PublishedBaselines(), 2000, 0.95, *seed)
		if err != nil {
			return err
		}
		fmt.Println("Table 4 with 95% bootstrap confidence intervals (2000 resamples):")
		for _, r := range results {
			fmt.Printf("  %-6s satisfied %.2f %-14s skill CI %s\n",
				r.Pair, r.Satisfied, r.SatisfiedCI, r.SkillCI)
		}
		meanCI, err := core.BootstrapMeanSkill(res.Timelines, core.PublishedBaselines(), 2000, 0.95, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("  mean skill %s (paper point estimate: 0.37)\n", meanCI)
		return nil
	case "trend":
		periods := res.SkillTrend(4)
		fmt.Println("CVD skill by publication period (half-year slices):")
		for _, p := range periods {
			fmt.Printf("  %s .. %s  %2d CVEs  mean skill %.2f\n",
				p.Start.Format("2006-01"), p.End.Format("2006-01"), p.CVEs, p.MeanSkill)
		}
		return nil
	case "kevfeed":
		props := core.ProposeKEVAdditions(res.Events, res.KEV, 2)
		fmt.Printf("automated KEV additions from telescope evidence (>=2 events): %d CVEs\n", len(props))
		for i, p := range props {
			if i == 15 {
				fmt.Printf("  ... and %d more\n", len(props)-15)
				break
			}
			status := "NOT in KEV"
			if p.InCatalog {
				status = fmt.Sprintf("in KEV, telescope leads by %.0f days", p.LeadDays)
			}
			fmt.Printf("  CVE-%s  first seen %s, %d events  (%s)\n",
				p.CVE, p.FirstSeen.Format("2006-01-02"), p.Events, status)
		}
		return nil
	case "artifacts":
		corpus, err := res.DisclosureArtifacts()
		if err != nil {
			return err
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*out, "disclosure-artifacts.json")
		if err := datasets.WriteJSON(path, corpus); err != nil {
			return err
		}
		fmt.Printf("wrote %d disclosure artifacts to %s\n", len(corpus), path)
		return nil
	case "all":
		return writeAll(res, *out)
	default:
		return fmt.Errorf("unknown command %q", fs.Arg(0))
	}
}

func summary(res *wayback.Results) error {
	fmt.Printf("CVE Wayback Machine — study summary\n\n")
	fmt.Printf("Capture: %d sessions, %d exploit events, %d CVEs, %d scanner IPs\n",
		res.Stats.Sessions, res.Stats.MatchedEvents, res.Stats.DistinctCVEs, res.Stats.DistinctSrcIPs)
	if res.Coverage.Sessions > 0 {
		fmt.Printf("Telescope coverage: %d unique instance IPs\n", res.Coverage.UniqueTelescopeIPs)
	}
	fmt.Println()
	fmt.Print(res.Table4().String())
	fmt.Printf("\nMean skill: %.2f (paper: 0.37)\n", res.MeanSkill())
	fmt.Printf("Mitigated exploit traffic: %.1f%% (paper: 95%%)\n", res.MitigatedShare()*100)
	f := res.Finding7()
	fmt.Printf("Finding 7: D<A %.2f -> %.2f, skill %+.0f%%\n", f.BeforeSatisfied, f.AfterSatisfied, f.SkillImprovement*100)
	kev := res.KEVComparison()
	fmt.Printf("KEV: %d/63 overlap, %.0f%% telescope-first, %.0f%% by >30 days\n",
		kev.OverlapCount, kev.DscopeFirstShare*100, kev.Over30DaysShare*100)
	return nil
}

func table(res *wayback.Results, which string) error {
	switch which {
	case "1":
		fmt.Print(res.Table1().String())
	case "2":
		fmt.Print(res.Table2().String())
	case "3":
		fmt.Print(res.Table3())
	case "4":
		fmt.Print(res.Table4().String())
	case "5":
		fmt.Print(res.Table5().String())
	case "6":
		fmt.Print(res.Table6().String())
	case "E", "e":
		fmt.Print(res.AppendixE().String())
	default:
		return fmt.Errorf("unknown table %q (1-6, E)", which)
	}
	return nil
}

func figure(res *wayback.Results, which string) error {
	n, err := strconv.Atoi(which)
	if err != nil {
		return fmt.Errorf("figure wants a number 1-18, got %q", which)
	}
	switch n {
	case 1:
		printHistogram("Figure 1: studied CVEs by publication quarter", res.Figure1(), 91, "days into study")
	case 2:
		for _, s := range res.Figure2() {
			printSeries(s)
		}
	case 3:
		printHistogram("Figure 3: exploit events over study time", res.Figure3(), 30, "days into study")
	case 4:
		printHistogram("Figure 4: exploit events relative to publication", res.Figure4(), 15, "days since publication")
	case 5:
		for _, f := range res.Figure5() {
			printWindow(f)
		}
	case 6:
		f := res.Figure6()
		fmt.Println("Figure 6: CVEs per 5-day bin (mitigated / unmitigated)")
		for i := range f.Mitigated {
			if f.Mitigated[i]+f.Unmit[i] == 0 {
				continue
			}
			fmt.Printf("  %+6.0fd  mit=%-3d unmit=%-3d\n", f.BinStart(i), f.Mitigated[i], f.Unmit[i])
		}
	case 7:
		f := res.Figure7()
		fmt.Printf("Figure 7: cumulative exploit events (mitigated n=%d, unmitigated n=%d)\n",
			len(f.MitigatedDays), len(f.UnmitDays))
		fmt.Printf("  mitigated   %s\n", report.Sparkline(f.Mitigated, 60))
		fmt.Printf("  unmitigated %s\n", report.Sparkline(f.Unmit, 60))
		fmt.Printf("  50%% of unmitigated exposure within %.0f days of publication\n",
			f.Unmit.Quantile(0.5))
	case 8:
		f := res.Figure8()
		fmt.Printf("Figure 8: Log4Shell sessions (n=%d)  %s\n", len(f.Times), report.Sparkline(f.CDF, 60))
	case 9:
		for _, s := range res.Figure9() {
			fmt.Printf("Figure 9 group %s (n=%d): %s\n", s.Group, len(s.DaysSince), report.Sparkline(s.CDF, 40))
		}
	case 10:
		printSeries(res.Figure10())
	case 11:
		printSeries(res.Figure11())
	case 12:
		f := res.Figure12()
		fmt.Printf("Figure 12: Confluence sessions (n=%d)  %s\n", len(f.Times), report.Sparkline(f.CDF, 60))
	case 13, 14, 15, 16, 17, 18:
		printWindow(res.Figures13to18()[n-13])
	default:
		return fmt.Errorf("unknown figure %d", n)
	}
	return nil
}

func printWindow(f core.WindowCDF) {
	fmt.Printf("%s (P(%s) = %.2f)  %s\n", f.Label, f.Desideratum, f.SatisfiedAtZero,
		report.Sparkline(f.CDF, 60))
}

func printSeries(s report.Series) {
	e, err := stats.NewECDF(xs(s))
	if err != nil {
		fmt.Printf("%s: (empty)\n", s.Name)
		return
	}
	fmt.Printf("%s (n=%d, median %.1f %s)  %s\n", s.Name, len(s.Points), e.Median(), s.XLabel,
		report.Sparkline(e, 60))
}

func xs(s report.Series) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.X
	}
	return out
}

func printHistogram(title string, h *stats.Histogram, binDays float64, label string) {
	fmt.Println(title)
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		fmt.Printf("  %+7.0f %s: %d\n", h.BinStart(i), label, c)
	}
}

func writeAll(res *wayback.Results, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writeTable := func(name string, t report.Table) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return t.WriteCSV(f)
	}
	tables := map[string]report.Table{
		"table1.csv": res.Table1(), "table2.csv": res.Table2(),
		"table4.csv": res.Table4(), "table5.csv": res.Table5(),
		"table6.csv": res.Table6(), "appendixE.csv": res.AppendixE(),
	}
	for name, t := range tables {
		if err := writeTable(name, t); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "table3.txt"), []byte(res.Table3()), 0o644); err != nil {
		return err
	}
	// Histogram figures as bin CSVs.
	writeHist := func(name, label string, h *stats.Histogram) error {
		tab := report.HistogramTable(name, label, h, func(i int) string {
			return fmt.Sprintf("%g", h.BinStart(i))
		})
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return tab.WriteCSV(f)
	}
	if err := writeHist("figure1.csv", "days-into-study", res.Figure1()); err != nil {
		return err
	}
	if err := writeHist("figure3.csv", "days-into-study", res.Figure3()); err != nil {
		return err
	}
	if err := writeHist("figure4.csv", "days-since-publication", res.Figure4()); err != nil {
		return err
	}
	f6 := res.Figure6()
	f6tab := report.Table{Title: "Figure 6", Headers: []string{"bin-start-days", "mitigated", "unmitigated"}}
	for i := range f6.Mitigated {
		f6tab.AddRow(fmt.Sprintf("%g", f6.BinStart(i)), f6.Mitigated[i], f6.Unmit[i])
	}
	f6file, err := os.Create(filepath.Join(dir, "figure6.csv"))
	if err != nil {
		return err
	}
	if err := f6tab.WriteCSV(f6file); err != nil {
		f6file.Close()
		return err
	}
	if err := f6file.Close(); err != nil {
		return err
	}

	// Figures as long-form series CSVs.
	var windowSeries []report.Series
	for _, f := range append(res.Figure5(), res.Figures13to18()...) {
		windowSeries = append(windowSeries, report.FromECDF(f.Label, "days", f.CDF))
	}
	figures := map[string][]report.Series{
		"figure2.csv":       res.Figure2(),
		"figure5_13-18.csv": windowSeries,
		"figure10.csv":      {res.Figure10()},
		"figure11.csv":      {res.Figure11()},
	}
	f7 := res.Figure7()
	figures["figure7.csv"] = []report.Series{
		report.FromECDF("mitigated", "days", f7.Mitigated),
		report.FromECDF("unmitigated", "days", f7.Unmit),
	}
	figures["figure8.csv"] = []report.Series{report.FromECDF("log4shell", "days", res.Figure8().CDF)}
	figures["figure12.csv"] = []report.Series{report.FromECDF("confluence", "days", res.Figure12().CDF)}
	var fig9 []report.Series
	for _, s := range res.Figure9() {
		fig9 = append(fig9, report.FromECDF("group "+s.Group, "days", s.CDF))
	}
	figures["figure9.csv"] = fig9
	for name, series := range figures {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := report.WriteSeriesCSV(f, series...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("wrote tables and figures to %s\n", dir)
	return nil
}

// replay scans on-disk captures (pcap or pcapng, one or many — rotated
// segments replay in filename order) against a dated ruleset — the study's
// post-facto evaluation as a standalone tool. Each segment gets its own
// decoder goroutine feeding the flow-sharded assembler, so multi-segment
// replays parallelize while producing the exact serial-scan output.
func replay(paths []string, rulesPath string, shards, workers int, overlap tcpasm.OverlapPolicy, impairSpec string) error {
	if len(paths) == 0 || paths[0] == "" {
		return fmt.Errorf("replay needs at least one capture file")
	}
	profile, err := netsim.ParseProfile(impairSpec)
	if err != nil {
		return err
	}
	var ruleset []rules.DatedRule
	if rulesPath == "" {
		var err error
		ruleset, err = scanner.StudyRuleset()
		if err != nil {
			return err
		}
	} else {
		f, err := os.Open(rulesPath)
		if err != nil {
			return err
		}
		defer f.Close()
		var errs []error
		ruleset, errs = rules.ParseDatedRuleset(f)
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "waybackctl: ruleset:", e)
		}
		if len(ruleset) == 0 {
			return fmt.Errorf("no usable rules in %s", rulesPath)
		}
	}
	engine := ids.NewEngine(ruleset, ids.Config{PortInsensitive: true})

	// One source per file, in the same sorted order OpenFiles replays them,
	// so segments decode in parallel.
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	srcs := make([]pcapio.PacketSource, len(sorted))
	for i, path := range sorted {
		src, err := pcapio.OpenFiles(path)
		if err != nil {
			return err
		}
		defer src.Close()
		srcs[i] = src
	}
	srcs = netsim.ImpairSources(srcs, profile)
	events, stats, err := ids.ScanCaptureSharded(srcs, engine,
		ids.ScanConfig{Shards: shards, MatchWorkers: workers,
			Assembler: tcpasm.Config{OverlapPolicy: overlap}})
	if err != nil {
		return err
	}
	fmt.Printf("%d file(s): %d packets (%d undecodable), %d sessions, %d exploit events, %d CVEs\n",
		len(paths), stats.Packets, stats.DecodeErrors, stats.Sessions, stats.MatchedEvents, stats.DistinctCVEs)
	if stats.AmbiguousSessions > 0 {
		fmt.Printf("  %d session(s) flagged ambiguous (conflicting overlapping retransmits, %s policy)\n",
			stats.AmbiguousSessions, overlap)
	}
	byCVE := map[string]int{}
	for _, ev := range events {
		key := ev.CVE
		if key == "" {
			key = fmt.Sprintf("sid:%d", ev.SID)
		}
		byCVE[key]++
	}
	keys := make([]string, 0, len(byCVE))
	for k := range byCVE {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if byCVE[keys[i]] != byCVE[keys[j]] {
			return byCVE[keys[i]] > byCVE[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		fmt.Printf("  CVE-%-14s %d events\n", k, byCVE[k])
	}
	// Rule profiling: which signatures did the work.
	prof := engine.Profile()
	hot := 0
	for _, p := range prof {
		if p.Evaluated == 0 {
			continue
		}
		if hot == 0 {
			fmt.Println("hottest rules (evaluations/matches):")
		}
		hot++
		if hot > 5 {
			break
		}
		fmt.Printf("  sid:%-7d %d/%d\n", p.SID, p.Evaluated, p.Matched)
	}
	return nil
}
