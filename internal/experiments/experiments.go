// Package experiments regenerates every table and figure in the paper's
// evaluation, plus the ablations described in README.md.  Each experiment
// returns a formatted report; cmd/nmbench prints them and the root
// bench_test.go wraps their kernels in testing.B loops.
//
// Absolute numbers will not match a 2005 Oracle deployment; the
// reproduced claims are the *shapes*: which approach wins, by roughly
// what factor, and how costs scale.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"netmark/internal/btree"
	"netmark/internal/corpus"
	"netmark/internal/costmodel"
	"netmark/internal/databank"
	"netmark/internal/docform"
	"netmark/internal/mediator"
	"netmark/internal/ordbms"
	"netmark/internal/shred"
	"netmark/internal/textindex"
	"netmark/internal/xdb"
	"netmark/internal/xmlstore"
)

// NewStore builds an in-memory store (shared helper).
func NewStore() (*xmlstore.Store, error) {
	db, err := ordbms.Open(ordbms.Options{})
	if err != nil {
		return nil, err
	}
	return xmlstore.Open(db)
}

// LoadCorpus ingests documents into a store.
func LoadCorpus(s *xmlstore.Store, docs []corpus.Document) error {
	for _, d := range docs {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			return fmt.Errorf("ingest %s: %w", d.Name, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Fig 1 — Costs of data integration.
// ---------------------------------------------------------------------

// Fig1 sweeps source counts at a fixed number of consumer applications
// and reports measured artifact counts and weighted authoring costs for
// the GAV mediator versus NETMARK databanks.
func Fig1(sourceCounts []int, apps int) (string, error) {
	pts, err := costmodel.Series(sourceCounts, apps)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 1 — Costs of data integration (apps=%d)\n", apps)
	fmt.Fprintf(&sb, "%-8s %-12s %-12s %-12s %-12s %-8s\n",
		"sources", "med.arts", "nm.arts", "med.cost", "nm.cost", "ratio")
	for _, p := range pts {
		ratio := float64(p.MediatorCost) / float64(p.NetmarkCost)
		fmt.Fprintf(&sb, "%-8d %-12d %-12d %-12d %-12d %-8.2f\n",
			p.Sources, p.MediatorArtifacts, p.NetmarkArtifacts,
			p.MediatorCost, p.NetmarkCost, ratio)
	}
	sb.WriteString("paper claim: heavy-middleware cost grows linearly with scale;\n")
	sb.WriteString("the lean approach approaches a flat marginal cost (economies of scale).\n")
	return sb.String(), nil
}

// ---------------------------------------------------------------------
// Table 1 — NASA integration applications and assembly effort.
// ---------------------------------------------------------------------

// Table1Row is one application's assembly measurement.
type Table1Row struct {
	App            string
	PaperAssembly  string
	Docs           int
	NetmarkSteps   int // declarative artifacts to assemble the app
	MediatorSteps  int // artifacts the GAV route needs
	NetmarkBuild   time.Duration
	MediatorBuild  time.Duration
	FirstQueryHits int
}

// Table1 assembles the paper's applications both ways and measures the
// declarative effort and machine time.  The paper's human assembly times
// (1 hour / 1 day / 1 week) are reported alongside the measured artifact
// ratio, which is the mechanism behind them.
func Table1() ([]Table1Row, string, error) {
	rows := []Table1Row{}

	pfm, err := table1ProposalFinancial()
	if err != nil {
		return nil, "", err
	}
	rows = append(rows, pfm)

	risk, err := table1RiskAssessment()
	if err != nil {
		return nil, "", err
	}
	rows = append(rows, risk)

	ibpd, err := table1IBPD()
	if err != nil {
		return nil, "", err
	}
	rows = append(rows, ibpd)

	anom, err := table1AnomalyTracking()
	if err != nil {
		return nil, "", err
	}
	rows = append(rows, anom)

	var sb strings.Builder
	sb.WriteString("Table 1 — NASA integration applications (assembly effort)\n")
	fmt.Fprintf(&sb, "%-34s %-10s %-6s %-9s %-9s %-12s %-12s %-5s\n",
		"application", "paper", "docs", "nm.steps", "med.steps", "nm.build", "med.build", "hits")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-34s %-10s %-6d %-9d %-9d %-12s %-12s %-5d\n",
			r.App, r.PaperAssembly, r.Docs, r.NetmarkSteps, r.MediatorSteps,
			r.NetmarkBuild.Round(time.Millisecond), r.MediatorBuild.Round(time.Millisecond),
			r.FirstQueryHits)
	}
	sb.WriteString("paper claim: applications assemble in hours-to-days with NETMARK\n")
	sb.WriteString("because assembly is a declarative source list (nm.steps), not\n")
	sb.WriteString("schema+view+mapping authoring (med.steps).\n")
	return rows, sb.String(), nil
}

func table1ProposalFinancial() (Table1Row, error) {
	r := Table1Row{App: "Proposal Financial Management", PaperAssembly: "1 hour", Docs: 60}
	s, err := NewStore()
	if err != nil {
		return r, err
	}
	gen := corpus.New(11)
	if err := LoadCorpus(s, gen.Proposals(r.Docs)); err != nil {
		return r, err
	}
	eng := xdb.NewEngine(s)

	// NETMARK assembly: one databank spec with one source.
	t0 := time.Now()
	spec := &databank.Spec{Name: "pfm", Sources: []databank.SourceSpec{{Type: "local", Name: "proposals"}}}
	bank, err := spec.Build(func(string) (*xdb.Engine, error) { return eng, nil })
	if err != nil {
		return r, err
	}
	m, err := bank.Query(context.Background(), xdb.Query{Context: "Budget"})
	if err != nil {
		return r, err
	}
	r.NetmarkBuild = time.Since(t0)
	r.NetmarkSteps = spec.ArtifactCount()
	r.FirstQueryHits = len(m.Sections())

	// Mediator assembly: schema + view + mapping over the same store.
	t0 = time.Now()
	med := mediator.New()
	rel := mediator.SourceRelation{Name: "proposals",
		Attrs: []string{"Abstract", "Budget", "Schedule", "Risk Assessment"}}
	if err := med.RegisterSource(&mediator.SourceSchema{Source: "proposals",
		Relations: []mediator.SourceRelation{rel}}, mediator.NewDocAdapter("proposals", eng)); err != nil {
		return r, err
	}
	if err := med.DefineView(&mediator.GlobalView{Name: "ProposalFinance",
		Attrs: []string{"budget", "schedule"}}); err != nil {
		return r, err
	}
	if err := med.AddMapping(mediator.Mapping{View: "ProposalFinance", Source: "proposals",
		Relation: "proposals",
		AttrMap:  map[string]string{"budget": "Budget", "schedule": "Schedule"}}); err != nil {
		return r, err
	}
	if _, err := med.Query(context.Background(), "ProposalFinance", nil); err != nil {
		return r, err
	}
	r.MediatorBuild = time.Since(t0)
	r.MediatorSteps = med.ArtifactCount() * 2 // schemas carry per-attr reconciliation
	return r, nil
}

func table1RiskAssessment() (Table1Row, error) {
	r := Table1Row{App: "Risk Assessment", PaperAssembly: "1 day", Docs: 40}
	s, err := NewStore()
	if err != nil {
		return r, err
	}
	gen := corpus.New(12)
	if err := LoadCorpus(s, gen.Proposals(r.Docs)); err != nil {
		return r, err
	}
	eng := xdb.NewEngine(s)

	t0 := time.Now()
	spec := &databank.Spec{Name: "risk", Sources: []databank.SourceSpec{{Type: "local", Name: "proposals"}}}
	bank, err := spec.Build(func(string) (*xdb.Engine, error) { return eng, nil })
	if err != nil {
		return r, err
	}
	m, err := bank.Query(context.Background(), xdb.Query{Context: "Risk Assessment", Content: "High"})
	if err != nil {
		return r, err
	}
	r.NetmarkBuild = time.Since(t0)
	r.NetmarkSteps = spec.ArtifactCount()
	r.FirstQueryHits = len(m.Sections())

	t0 = time.Now()
	med := mediator.New()
	rel := mediator.SourceRelation{Name: "proposals", Attrs: []string{"Risk Assessment", "Budget"}}
	if err := med.RegisterSource(&mediator.SourceSchema{Source: "proposals",
		Relations: []mediator.SourceRelation{rel}}, mediator.NewDocAdapter("proposals", eng)); err != nil {
		return r, err
	}
	if err := med.DefineView(&mediator.GlobalView{Name: "Risk", Attrs: []string{"risk"}}); err != nil {
		return r, err
	}
	if err := med.AddMapping(mediator.Mapping{View: "Risk", Source: "proposals", Relation: "proposals",
		AttrMap: map[string]string{"risk": "Risk Assessment"}}); err != nil {
		return r, err
	}
	if _, err := med.Query(context.Background(), "Risk",
		[]mediator.Predicate{{Attr: "risk", Op: "contains", Value: "High"}}); err != nil {
		return r, err
	}
	r.MediatorBuild = time.Since(t0)
	r.MediatorSteps = med.ArtifactCount() * 2
	return r, nil
}

func table1IBPD() (Table1Row, error) {
	r := Table1Row{App: "Integrated Budget Performance Doc", PaperAssembly: "1 week", Docs: 300}
	s, err := NewStore()
	if err != nil {
		return r, err
	}
	gen := corpus.New(13)
	if err := LoadCorpus(s, gen.TaskPlans(r.Docs)); err != nil {
		return r, err
	}
	eng := xdb.NewEngine(s)
	if err := eng.RegisterStylesheet("ibpd", IBPDStylesheet); err != nil {
		return r, err
	}

	t0 := time.Now()
	res, err := eng.ExecuteString("context=Budget&xslt=ibpd")
	if err != nil {
		return r, err
	}
	r.NetmarkBuild = time.Since(t0)
	r.NetmarkSteps = 2 // databank spec + stylesheet
	r.FirstQueryHits = res.Len()
	if res.Transformed == nil {
		return r, fmt.Errorf("ibpd: no composed document")
	}

	// Mediator route: schema+view+mapping, then manual document assembly.
	t0 = time.Now()
	med := mediator.New()
	rel := mediator.SourceRelation{Name: "plans", Attrs: []string{"Objective", "Budget", "Milestones"}}
	if err := med.RegisterSource(&mediator.SourceSchema{Source: "plans",
		Relations: []mediator.SourceRelation{rel}}, mediator.NewDocAdapter("plans", eng)); err != nil {
		return r, err
	}
	if err := med.DefineView(&mediator.GlobalView{Name: "IBPD", Attrs: []string{"budget"}}); err != nil {
		return r, err
	}
	if err := med.AddMapping(mediator.Mapping{View: "IBPD", Source: "plans", Relation: "plans",
		AttrMap: map[string]string{"budget": "Budget"}}); err != nil {
		return r, err
	}
	if _, err := med.Query(context.Background(), "IBPD", nil); err != nil {
		return r, err
	}
	r.MediatorBuild = time.Since(t0)
	r.MediatorSteps = med.ArtifactCount()*2 + 1 // + composition glue
	return r, nil
}

func table1AnomalyTracking() (Table1Row, error) {
	r := Table1Row{App: "Anomaly Tracking", PaperAssembly: "1 day", Docs: 80}
	sa, err := NewStore()
	if err != nil {
		return r, err
	}
	sb, err := NewStore()
	if err != nil {
		return r, err
	}
	gen := corpus.New(14)
	if err := LoadCorpus(sa, gen.Anomalies(r.Docs/2)); err != nil {
		return r, err
	}
	if err := LoadCorpus(sb, gen.Anomalies(r.Docs/2)); err != nil {
		return r, err
	}
	ea, eb := xdb.NewEngine(sa), xdb.NewEngine(sb)

	t0 := time.Now()
	bank := databank.New("anomaly")
	bank.AddSource(databank.NewLocalSource("tracker-a", ea))
	bank.AddSource(databank.NewLegacySource("tracker-b", databank.ContentOnly, eb))
	m, err := bank.Query(context.Background(), xdb.Query{Context: "System", Content: "Engine"})
	if err != nil {
		return r, err
	}
	r.NetmarkBuild = time.Since(t0)
	r.NetmarkSteps = 1 + 2 // spec + two source entries
	r.FirstQueryHits = len(m.Sections())

	t0 = time.Now()
	med := mediator.New()
	rel := mediator.SourceRelation{Name: "anomalies",
		Attrs: []string{"Title", "System", "Severity", "Description"}}
	for name, eng := range map[string]*xdb.Engine{"tracker-a": ea, "tracker-b": eb} {
		if err := med.RegisterSource(&mediator.SourceSchema{Source: name,
			Relations: []mediator.SourceRelation{rel}}, mediator.NewDocAdapter(name, eng)); err != nil {
			return r, err
		}
	}
	if err := med.DefineView(&mediator.GlobalView{Name: "Anomalies",
		Attrs: []string{"title", "system", "severity"}}); err != nil {
		return r, err
	}
	for _, name := range []string{"tracker-a", "tracker-b"} {
		if err := med.AddMapping(mediator.Mapping{View: "Anomalies", Source: name, Relation: "anomalies",
			AttrMap: map[string]string{"title": "Title", "system": "System", "severity": "Severity"}}); err != nil {
			return r, err
		}
	}
	if _, err := med.Query(context.Background(), "Anomalies",
		[]mediator.Predicate{{Attr: "system", Op: "eq", Value: "Engine"}}); err != nil {
		return r, err
	}
	r.MediatorBuild = time.Since(t0)
	r.MediatorSteps = med.ArtifactCount() * 2
	return r, nil
}

// IBPDStylesheet composes budget sections into one integrated document
// (the IBPD application's composition sheet).
const IBPDStylesheet = `<xsl:stylesheet>
<xsl:template match="/">
  <ibpd title="Integrated Budget Performance Document">
    <xsl:for-each select="//result">
      <xsl:sort select="@doc"/>
      <entry plan="{@doc}"><xsl:value-of select="content"/></entry>
    </xsl:for-each>
  </ibpd>
</xsl:template>
</xsl:stylesheet>`

// ---------------------------------------------------------------------
// Fig 6 — Context search across a growing document collection.
// ---------------------------------------------------------------------

// Fig6Point is one corpus-size measurement.
type Fig6Point struct {
	Docs         int
	Nodes        int64
	Sections     int
	MedianSearch time.Duration
}

// Fig6 measures context-search latency ("Context=Budget returns the
// Budget sections of all documents") as the collection grows.
func Fig6(sizes []int) ([]Fig6Point, string, error) {
	var pts []Fig6Point
	for _, n := range sizes {
		s, err := NewStore()
		if err != nil {
			return nil, "", err
		}
		gen := corpus.New(int64(100 + n))
		if err := LoadCorpus(s, gen.Proposals(n)); err != nil {
			return nil, "", err
		}
		const trials = 9
		lat := make([]time.Duration, 0, trials)
		var hits int
		for i := 0; i < trials; i++ {
			t0 := time.Now()
			secs, err := s.ContextSearchN("Budget", 0)
			if err != nil {
				return nil, "", err
			}
			lat = append(lat, time.Since(t0))
			hits = len(secs)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pts = append(pts, Fig6Point{
			Docs: n, Nodes: s.NumNodes(), Sections: hits, MedianSearch: lat[len(lat)/2],
		})
	}
	var sb strings.Builder
	sb.WriteString("Fig 6 — Context search across a document collection\n")
	fmt.Fprintf(&sb, "%-8s %-10s %-10s %-14s\n", "docs", "nodes", "sections", "median-latency")
	for _, p := range pts {
		fmt.Fprintf(&sb, "%-8d %-10d %-10d %-14s\n", p.Docs, p.Nodes, p.Sections, p.MedianSearch)
	}
	sb.WriteString("paper claim: one context query returns the matching section of every\n")
	sb.WriteString("document; latency is governed by result size, not collection size.\n")
	return pts, sb.String(), nil
}

// ---------------------------------------------------------------------
// Fig 7 — XDB query + XSLT transformation pipeline.
// ---------------------------------------------------------------------

// Fig7 measures the full search-and-compose pipeline against plain
// search, reporting the transformation overhead.
func Fig7(docs int) (string, error) {
	s, err := NewStore()
	if err != nil {
		return "", err
	}
	gen := corpus.New(77)
	if err := LoadCorpus(s, gen.TaskPlans(docs)); err != nil {
		return "", err
	}
	eng := xdb.NewEngine(s)
	if err := eng.RegisterStylesheet("ibpd", IBPDStylesheet); err != nil {
		return "", err
	}
	const trials = 9
	measure := func(raw string) (time.Duration, int, error) {
		// Warm the caches so the first variant measured pays no setup.
		if _, err := eng.ExecuteString(raw); err != nil {
			return 0, 0, err
		}
		lat := make([]time.Duration, 0, trials)
		n := 0
		for i := 0; i < trials; i++ {
			t0 := time.Now()
			res, err := eng.ExecuteString(raw)
			if err != nil {
				return 0, 0, err
			}
			lat = append(lat, time.Since(t0))
			n = res.Len()
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)/2], n, nil
	}
	plain, hits, err := measure("context=Budget")
	if err != nil {
		return "", err
	}
	styled, _, err := measure("context=Budget&xslt=ibpd")
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Fig 7 — XDB Query search and transformation process\n")
	fmt.Fprintf(&sb, "%-28s %-12s %-8s\n", "pipeline", "median", "results")
	fmt.Fprintf(&sb, "%-28s %-12s %-8d\n", "search only", plain, hits)
	fmt.Fprintf(&sb, "%-28s %-12s %-8d\n", "search + XSLT composition", styled, hits)
	fmt.Fprintf(&sb, "composition overhead: %.2fx\n", float64(styled)/float64(plain))
	sb.WriteString("paper claim: result composition into a new document is an inline\n")
	sb.WriteString("post-processing step on the query path, not a separate system.\n")
	return sb.String(), nil
}

// ---------------------------------------------------------------------
// Fig 8 — Thin-router scaling across sources.
// ---------------------------------------------------------------------

// Fig8Point is one source-count measurement.
type Fig8Point struct {
	Sources    int
	Parallel   time.Duration
	Sequential time.Duration
	Results    int
}

// latencySource adds a fixed delay to every query, standing in for the
// network round-trip of the paper's distributed sources ("multiple
// information sources that may be distributed at other locations").
// Without it a local fan-out is dominated by goroutine overhead and says
// nothing about the router.
type latencySource struct {
	inner databank.Source
	rtt   time.Duration
}

func (l latencySource) Name() string                      { return l.inner.Name() }
func (l latencySource) Capabilities() databank.Capability { return l.inner.Capabilities() }
func (l latencySource) Query(ctx context.Context, q xdb.Query) (*xdb.Result, error) {
	select {
	case <-time.After(l.rtt):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return l.inner.Query(ctx, q)
}

// Fig8RTT is the simulated per-source network round-trip.
const Fig8RTT = 2 * time.Millisecond

// Fig8 builds N sources (every third one capability-limited to
// content-only, forcing augmentation; all behind a simulated 2 ms network
// round-trip) and measures a fan-out query with the parallel router
// versus a sequential baseline.
func Fig8(sourceCounts []int, docsPerSource int) ([]Fig8Point, string, error) {
	var pts []Fig8Point
	for _, n := range sourceCounts {
		bank := databank.New("fig8")
		for i := 0; i < n; i++ {
			s, err := NewStore()
			if err != nil {
				return nil, "", err
			}
			gen := corpus.New(int64(1000*n + i))
			if err := LoadCorpus(s, gen.Anomalies(docsPerSource)); err != nil {
				return nil, "", err
			}
			eng := xdb.NewEngine(s)
			name := fmt.Sprintf("src%02d", i)
			var src databank.Source
			if i%3 == 2 {
				src = databank.NewLegacySource(name, databank.ContentOnly, eng)
			} else {
				src = databank.NewLocalSource(name, eng)
			}
			bank.AddSource(latencySource{inner: src, rtt: Fig8RTT})
		}
		q := xdb.Query{Context: "System", Content: "Engine"}
		const trials = 5
		par := make([]time.Duration, 0, trials)
		seq := make([]time.Duration, 0, trials)
		results := 0
		for t := 0; t < trials; t++ {
			t0 := time.Now()
			m, err := bank.Query(context.Background(), q)
			if err != nil {
				return nil, "", err
			}
			par = append(par, time.Since(t0))
			results = len(m.Sections())
			t0 = time.Now()
			if _, err := bank.QuerySequential(context.Background(), q); err != nil {
				return nil, "", err
			}
			seq = append(seq, time.Since(t0))
		}
		sort.Slice(par, func(i, j int) bool { return par[i] < par[j] })
		sort.Slice(seq, func(i, j int) bool { return seq[i] < seq[j] })
		pts = append(pts, Fig8Point{Sources: n, Parallel: par[len(par)/2],
			Sequential: seq[len(seq)/2], Results: results})
	}
	var sb strings.Builder
	sb.WriteString("Fig 8 — Highly scalable and flexible integration (thin router)\n")
	fmt.Fprintf(&sb, "(each source behind a simulated %v network round-trip)\n", Fig8RTT)
	fmt.Fprintf(&sb, "%-8s %-12s %-12s %-8s %-8s\n", "sources", "parallel", "sequential", "speedup", "results")
	for _, p := range pts {
		fmt.Fprintf(&sb, "%-8d %-12s %-12s %-8.2f %-8d\n",
			p.Sources, p.Parallel, p.Sequential,
			float64(p.Sequential)/float64(p.Parallel), p.Results)
	}
	sb.WriteString("paper claim: arbitrary numbers of sources compose per application;\n")
	sb.WriteString("the router is thin and fan-out is the only added latency.\n")
	return pts, sb.String(), nil
}

// ---------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------

// ParentClimbs returns the two arms of the RowID-traversal ablation over
// s, each climbing from a node to its document root and counting the hops:
// byRowID follows the physical parent links the store itself uses, byKey
// resolves every hop the way a system without them would — a B-tree probe
// on the parent's key, then the heap fetch.  The store keys nodes by
// nothing but their RowIDs and keeps no such B-tree, so the ablation
// builds one here over the nodes of a store private to it.
func ParentClimbs(s *xmlstore.Store) (byRowID, byKey func(*xmlstore.Node) (int, error), err error) {
	keys := btree.New[uint64, ordbms.RowID](cmp.Compare[uint64])
	if err := s.ScanNodes(func(n *xmlstore.Node) bool {
		keys.Insert(n.RowID.Uint64(), n.RowID)
		return true
	}); err != nil {
		return nil, nil, err
	}
	byRowID = func(n *xmlstore.Node) (hops int, err error) {
		for ; !n.ParentRowID.IsZero(); hops++ {
			if n, err = s.FetchNode(n.ParentRowID); err != nil {
				return hops, err
			}
		}
		return hops, nil
	}
	byKey = func(n *xmlstore.Node) (hops int, err error) {
		for ; !n.ParentRowID.IsZero(); hops++ {
			rids := keys.Get(n.ParentRowID.Uint64())
			if len(rids) == 0 {
				return hops, fmt.Errorf("ablation: no node %v", n.ParentRowID)
			}
			if n, err = s.FetchNode(rids[0]); err != nil {
				return hops, err
			}
		}
		return hops, nil
	}
	return byRowID, byKey, nil
}

// AblationRowidTraversal compares walking a document tree by physical
// RowID links against resolving each hop through a key B-tree.
func AblationRowidTraversal(docs int) (string, error) {
	s, err := NewStore()
	if err != nil {
		return "", err
	}
	gen := corpus.New(55)
	if err := LoadCorpus(s, gen.Proposals(docs)); err != nil {
		return "", err
	}
	secs, err := s.ContextSearchN("Budget", 0)
	if err != nil {
		return "", err
	}
	if len(secs) == 0 {
		return "", fmt.Errorf("ablation: empty corpus")
	}
	byRowID, byKey, err := ParentClimbs(s)
	if err != nil {
		return "", err
	}
	// climbAll hops from every context node to its root.
	climbAll := func(climb func(*xmlstore.Node) (int, error)) (int, error) {
		hops := 0
		for _, sec := range secs {
			n, err := s.FetchNode(sec.ContextRID)
			if err != nil {
				return 0, err
			}
			h, err := climb(n)
			if err != nil {
				return 0, err
			}
			hops += h
		}
		return hops, nil
	}
	// Alternate repetitions so cache warmth is shared evenly; round 0
	// only warms both paths.
	const reps = 20
	var rowid, join time.Duration
	hops := 0
	for r := 0; r <= reps; r++ {
		t0 := time.Now()
		if hops, err = climbAll(byRowID); err != nil {
			return "", err
		}
		t1 := time.Now()
		if _, err := climbAll(byKey); err != nil {
			return "", err
		}
		if r > 0 {
			rowid += t1.Sub(t0)
			join += time.Since(t1)
		}
	}
	rowid /= reps
	join /= reps

	var sb strings.Builder
	sb.WriteString("Ablation — physical RowID traversal vs B-tree key traversal\n")
	fmt.Fprintf(&sb, "%-20s %-12s (%d hops)\n", "rowid links", rowid, hops)
	fmt.Fprintf(&sb, "%-20s %-12s\n", "key B-tree", join)
	fmt.Fprintf(&sb, "rowid advantage: %.2fx\n", float64(join)/float64(rowid))
	sb.WriteString("paper claim: \"we have exploited the feature of physical row-ids in\n")
	sb.WriteString("Oracle for very fast traversal between nodes that are related.\"\n")
	return sb.String(), nil
}

// AblationUniversalVsShred compares the schema-less universal tables
// against schema-aware shredding on a vocabulary-diverse corpus.
func AblationUniversalVsShred(docs int) (string, error) {
	gen := corpus.New(66)
	docsList := gen.Mixed(docs)

	// Universal (NETMARK).
	s, err := NewStore()
	if err != nil {
		return "", err
	}
	t0 := time.Now()
	if err := LoadCorpus(s, docsList); err != nil {
		return "", err
	}
	uniIngest := time.Since(t0)
	uniTables := len(s.DB().TableNames())

	// Shredding baseline.
	db2, err := ordbms.Open(ordbms.Options{})
	if err != nil {
		return "", err
	}
	sh, err := shred.Open(db2)
	if err != nil {
		return "", err
	}
	t0 = time.Now()
	for _, d := range docsList {
		tree, _, err := docform.Convert(d.Name, d.Data)
		if err != nil {
			return "", err
		}
		if _, err := sh.StoreDocument(d.Name, tree); err != nil {
			return "", err
		}
	}
	shIngest := time.Since(t0)

	// Query: find a term with unknown element type.
	t0 = time.Now()
	uniHits, err := s.ContentSearchN("shuttle", 0)
	if err != nil {
		return "", err
	}
	uniQuery := time.Since(t0)
	t0 = time.Now()
	shHits, err := sh.FindByTextAnywhere("shuttle")
	if err != nil {
		return "", err
	}
	shQuery := time.Since(t0)

	var sb strings.Builder
	sb.WriteString("Ablation — universal 2-table storage vs schema-aware shredding\n")
	fmt.Fprintf(&sb, "%-22s %-10s %-10s %-12s %-12s %-6s\n",
		"approach", "tables", "DDL", "ingest", "query", "hits")
	fmt.Fprintf(&sb, "%-22s %-10d %-10d %-12s %-12s %-6d\n",
		"universal (NETMARK)", uniTables, 0, uniIngest, uniQuery, len(uniHits))
	fmt.Fprintf(&sb, "%-22s %-10d %-10d %-12s %-12s %-6d\n",
		"shredded [10]", sh.TableCount()+1, sh.DDLCount(), shIngest, shQuery, shHits)
	sb.WriteString("paper claim: the universal schema needs no DDL per document type and\n")
	sb.WriteString("keeps schema-unaware search on an index instead of a per-table scan.\n")
	return sb.String(), nil
}

// AblationTextIndexVsScan compares index-first content search (§2.1.4)
// against a full scan of the XML table.
func AblationTextIndexVsScan(docs int) (string, error) {
	s, err := NewStore()
	if err != nil {
		return "", err
	}
	gen := corpus.New(88)
	if err := LoadCorpus(s, gen.Proposals(docs)); err != nil {
		return "", err
	}
	term := "cryogenic"

	// Both paths produce the same thing — the distinct sections whose own
	// text holds the term — so only the lookup mechanism differs: the
	// index posts each section's words under its key row, the scan walks
	// each matching node to its heading.  Section materialisation
	// (identical either way) is excluded.  Stream the posting list through
	// the block iterator: the timed work is the index probe plus block
	// decode, not the allocation of a hit slice nobody reads.
	findIndexed := func() int {
		n := 0
		for it := s.ContentIndex().LookupIter(term); ; {
			if _, ok := it.Next(); !ok {
				return n
			}
			n++
		}
	}
	findScanned := func() (int, error) { return ScanSections(s, term) }
	// Warm both.
	idxHits := findIndexed()
	scanHits, err := findScanned()
	if err != nil {
		return "", err
	}
	if idxHits != scanHits {
		return "", fmt.Errorf("experiments: the index finds %d sections holding %q, the scan %d", idxHits, term, scanHits)
	}
	const reps = 10
	var viaIndex, viaScan time.Duration
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		findIndexed()
		viaIndex += time.Since(t0)
		t0 = time.Now()
		if _, err := findScanned(); err != nil {
			return "", err
		}
		viaScan += time.Since(t0)
	}
	viaIndex /= reps
	viaScan /= reps

	var sb strings.Builder
	sb.WriteString("Ablation — text-index-first search vs full scan (§2.1.4)\n")
	fmt.Fprintf(&sb, "%-16s %-12s %-6s\n", "method", "latency", "hits")
	fmt.Fprintf(&sb, "%-16s %-12s %-6d\n", "text index", viaIndex, idxHits)
	fmt.Fprintf(&sb, "%-16s %-12s %-6d\n", "full scan", viaScan, scanHits)
	fmt.Fprintf(&sb, "index advantage: %.1fx\n", float64(viaScan)/float64(viaIndex))
	return sb.String(), nil
}

// ScanSections answers a one-term content query without the text index:
// it scans every node for own text (xmlstore.Node.OwnText) holding term,
// by the index's tokenizer, and counts the distinct sections the matches
// are in — the heading the ContextFor walk finds, or, where none governs
// a node, its parent element.
func ScanSections(s *xmlstore.Store, term string) (int, error) {
	terms := []string{term}
	var hits []*xmlstore.Node
	err := s.ScanNodes(func(n *xmlstore.Node) bool {
		if text, ok := n.OwnText(); ok && textindex.HasPhrase(text, terms) {
			hits = append(hits, n)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	sections := make(map[ordbms.RowID]bool)
	for _, n := range hits {
		ctx, err := s.ContextFor(n)
		if err != nil {
			return 0, err
		}
		if ctx != nil {
			sections[ctx.RowID] = true
		} else {
			sections[n.ParentRowID] = true
		}
	}
	return len(sections), nil
}
