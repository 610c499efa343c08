package load

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"netmark"
	"netmark/internal/corpus"
)

// Sheet is the result-composition stylesheet registered as "brief" on
// the oracle and, over PUT /xslt/brief, on every netmarkd child.
const Sheet = `<xsl:stylesheet>
<xsl:template match="/">
  <briefing><xsl:for-each select="//result">
    <item from="{@doc}"><xsl:value-of select="content"/></item>
  </xsl:for-each></briefing>
</xsl:template>
</xsl:stylesheet>`

// SheetName is the name Sheet is registered under.
const SheetName = "brief"

// Query shapes, one per arm of the XDB query kernel.
const (
	ShapeContent    = "content"
	ShapeBoth       = "context+content"
	ShapeContext    = "context"
	ShapePrefix     = "prefix"
	ShapePhrase     = "phrase"
	ShapeDocs       = "scope=document"
	ShapeXSLT       = "xslt"
	ShapeStableTerm = "stable" // content query on a token no write touches
)

// PoolQuery is one query of a workload's pool with what the oracle says
// the server must answer.
type PoolQuery struct {
	Raw   string // URL query string
	Shape string
	// Marker is the element whose occurrences in the body are the
	// result items: "<result ", "<document " or "<item ".
	Marker string
	// Want is the expected number of result items.
	Want int
	// CRC is the CRC-32 of the expected body, or 0 when writes running
	// beside the query may legitimately change which items fill the limit.
	CRC uint32
}

// Inputs is everything a cycle feeds netmarkd, all derived from the
// run's seed and the fixed corpus.
type Inputs struct {
	Preload []netmark.Doc // built into the store in-process before netmarkd starts
	Puts    []netmark.Doc // PUT into /dav/ during the write phase
	Deletes []string      // names of preloaded or PUT documents to DELETE
	Pool    []PoolQuery
	// Gaps is the open-loop writer's schedule (mixed_rw only): the time
	// from one tick's due time to the next, in seconds.
	Gaps []float64
}

// UserBytes is the total size of a document set.
func UserBytes(docs []netmark.Doc) int64 {
	var n int64
	for _, d := range docs {
		n += int64(len(d.Data))
	}
	return n
}

// Hash fingerprints the corpus and the operation sequence: documents,
// delete targets, pool, writer schedule, and the first draws each query
// client will make.  Equal seeds must give equal hashes.
func (in *Inputs) Hash(w *Workload, seed int64, conns int) uint64 {
	h := fnv.New64a()
	for _, set := range [][]netmark.Doc{in.Preload, in.Puts} {
		for _, d := range set {
			h.Write([]byte(d.Name))
			h.Write(d.Data)
		}
	}
	for _, n := range in.Deletes {
		h.Write([]byte(n))
	}
	for _, q := range in.Pool {
		fmt.Fprintf(h, "%s=%d/%08x;", q.Raw, q.Want, q.CRC)
	}
	for _, g := range in.Gaps {
		fmt.Fprintf(h, "%.9f;", g)
	}
	for c := 0; c < conns; c++ {
		draw := w.Drawer(seed, c, len(in.Pool))
		for i := 0; i < 1024; i++ {
			fmt.Fprintf(h, "%d,", draw())
		}
	}
	return h.Sum64()
}

// Drawer returns client c's pool-index sequence for this workload.
func (w *Workload) Drawer(seed int64, c, pool int) func() int {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(c) + 1))
	if w.Zipf > 0 && pool > 1 {
		z := rand.NewZipf(rng, w.Zipf, 1, uint64(pool-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(pool) }
}

func toDocs(ds []corpus.Document) []netmark.Doc {
	out := make([]netmark.Doc, len(ds))
	for i, d := range ds {
		out[i] = netmark.Doc{Name: d.Name, Data: d.Data}
	}
	return out
}

// slidesFrom rewrites a plain-text proposal ("N. Heading" lines over
// paragraphs) as a slide deck, the one upmark format the corpus
// generator does not emit.
func slidesFrom(d corpus.Document, name string) netmark.Doc {
	var sb strings.Builder
	for _, line := range strings.Split(string(d.Data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if dot := strings.Index(line, ". "); dot > 0 && dot <= 2 && line[0] >= '0' && line[0] <= '9' {
			sb.WriteString("=== " + line[dot+2:] + "\n")
			continue
		}
		for _, s := range strings.Split(line, ". ") {
			sb.WriteString("- " + strings.TrimSuffix(s, ".") + "\n")
		}
	}
	return netmark.Doc{Name: name, Data: []byte("=== Overview\n" + sb.String())}
}

// extraFormats returns one spreadsheet, one XML report and one slide
// deck, so the write path crosses every upmark converter.
func extraFormats(g *corpus.Generator, k int) []netmark.Doc {
	csv := g.BudgetSpreadsheet(40)
	xml := g.DeepReport(k, 3, 4, 3)
	return []netmark.Doc{
		{Name: fmt.Sprintf("rollup-%04d.csv", k), Data: csv.Data},
		{Name: fmt.Sprintf("report-%04d.xml", k), Data: xml.Data},
		slidesFrom(g.Proposal(3*k+2), fmt.Sprintf("deck-%04d.slides", k)),
	}
}

// extraEvery is how many Mixed documents go by between extraFormats
// triples in a PUT set.
const extraEvery = 128

// corpusSeed generates the documents of every run.  Two corpora from the
// one generator differ by a tenth in what their median query costs;
// varied with the run's seed, that would be charged to every timing's
// spread between runs.
const corpusSeed = 1

// BuildDocs generates the workload's documents: the preloaded store and
// the PUT set, numbered disjointly so that no PUT document shares a
// per-document token with a preloaded one.
func (w *Workload) BuildDocs(scale float64, seconds float64) (preload, puts []netmark.Doc) {
	g := corpus.New(corpusSeed)
	nPre, nPut := w.counts(scale, seconds)
	switch w.Corpus {
	case "deep":
		preload = toDocs(g.DeepReports(nPre, 6, 24, 16))
		puts = toDocs(g.Mixed(nPut))
	default:
		all := toDocs(g.Mixed(nPre + nPut))
		preload, puts = all[:nPre:nPre], all[nPre:]
	}
	for k := 0; k*extraEvery < nPut; k++ {
		puts = append(puts, extraFormats(g, k)...)
	}
	return preload, puts
}

// words splits raw document bytes into lowercase alphabetic words and
// reports for each whether exactly one space separated it from the
// previous word (so bigrams stay inside a sentence).
func words(data []byte, fn func(w string, adjacent bool)) {
	start, gap := -1, 0
	onlySpace := true
	for i := 0; i <= len(data); i++ {
		var c byte
		if i < len(data) {
			c = data[i] | 0x20
		}
		if i < len(data) && c >= 'a' && c <= 'z' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			fn(strings.ToLower(string(data[start:i])), gap == 1 && onlySpace)
			start, gap, onlySpace = -1, 0, true
		}
		if i < len(data) {
			gap++
			if data[i] != ' ' {
				onlySpace = false
			}
		}
	}
}

// vocabulary discovers query material from the documents themselves:
// the most frequent words and in-sentence bigrams of a sample.  Markup
// keywords come along too; the oracle drops any that match nothing.
func vocabulary(docs []netmark.Doc) (terms, bigrams []string) {
	tf, bf := map[string]int{}, map[string]int{}
	step := len(docs)/96 + 1
	for i := 0; i < len(docs); i += step {
		prev := ""
		words(docs[i].Data, func(w string, adjacent bool) {
			if len(w) >= 5 {
				tf[w]++
			}
			if adjacent && len(prev) >= 3 && len(w) >= 3 {
				bf[prev+" "+w]++
			}
			prev = w
		})
	}
	top := func(m map[string]int, n int) []string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if m[keys[i]] != m[keys[j]] {
				return m[keys[i]] > m[keys[j]]
			}
			return keys[i] < keys[j]
		})
		if len(keys) > n {
			keys = keys[:n]
		}
		// The top n as a set barely depends on the seed; their order by
		// count does.  Alphabetical order makes the pool's make-up
		// follow the set.
		sort.Strings(keys)
		return keys
	}
	return top(tf, 64), top(bf, 32)
}

// docNumber extracts the zero-padded serial from a generated file name
// ("proposal-0123.rtf" -> "0123"), the one token unique to a document.
func docNumber(name string) string {
	dash, dot := strings.LastIndexByte(name, '-'), strings.LastIndexByte(name, '.')
	if dash < 0 || dot < dash {
		return ""
	}
	return name[dash+1 : dot]
}

// poolBuilder enumerates candidate queries and keeps those the oracle
// answers with enough hits.  Nothing here is drawn at random: the
// candidates come from the corpus's own vocabulary in a fixed order, so
// two seeds give pools of the same make-up over different documents, and
// a metric does not move because one seed's most popular query happens
// to have a tenth of another's response size.
type poolBuilder struct {
	oracle   *netmark.Netmark
	terms    []string
	bigrams  []string
	headings []string
	stable   []string
	seen     map[string]bool
	next     map[string]int // per shape: the next candidate to try
}

// pick strides through list so that consecutive candidates are far
// apart in its sorted order; 7919 is prime and shares no factor with any
// list length here.
func pick(list []string, i int) string { return list[(i*7919)%len(list)] }

// candidate builds the i-th candidate of a shape.
func (b *poolBuilder) candidate(shape string, i int) (url.Values, string) {
	v := url.Values{}
	marker := "<result "
	switch shape {
	case ShapeContent:
		// Single terms and pairs by turns; once the singles are used
		// up, pairs at growing distances.
		k := i / 2
		t := pick(b.terms, k)
		if i%2 == 1 || k >= len(b.terms) {
			t += " " + pick(b.terms, k+3+k/len(b.terms))
		}
		v.Set("content", t)
	case ShapeBoth:
		v.Set("context", pick(b.headings, i/len(b.terms)))
		v.Set("content", pick(b.terms, i))
	case ShapeContext:
		v.Set("context", pick(b.headings, i))
	case ShapePrefix:
		// The heading's first word, or its first two.
		words := strings.SplitN(pick(b.headings, i/2), " ", 3)
		if i%2 == 1 && len(words) > 2 {
			words = words[:2]
		} else {
			words = words[:1]
		}
		v.Set("context", strings.Join(words, " ")+"*")
	case ShapePhrase:
		v.Set("content", `"`+pick(b.bigrams, i)+`"`)
	case ShapeDocs:
		v.Set("content", pick(b.terms, i))
		v.Set("scope", "document")
		marker = "<document "
	case ShapeXSLT:
		if i%2 == 0 {
			v.Set("content", pick(b.terms, i/2))
		} else {
			v.Set("context", pick(b.headings, i/2))
		}
		v.Set("xslt", SheetName)
		marker = "<item "
	case ShapeStableTerm:
		v.Set("content", pick(b.stable, i/3))
		switch i % 3 {
		case 1:
			v.Set("scope", "document")
			marker = "<document "
		case 2:
			v.Set("xslt", SheetName)
			marker = "<item "
		}
	}
	return v, marker
}

// collect walks one shape's candidates until n of them are accepted or
// the vocabulary runs dry.  A query is accepted when it is new, the
// oracle answers it with at least one hit, and it has more than minHits
// hits before the limit is applied; checked says whether its body is
// pinned by CRC.
func (b *poolBuilder) collect(shape string, n int, limits []int, minHits int, checked bool) []PoolQuery {
	var out []PoolQuery
	for misses := 0; len(out) < n && misses < 400; {
		misses++
		i := b.next[shape]
		b.next[shape]++
		v, marker := b.candidate(shape, i)
		limit := limits[i%len(limits)]
		v.Set("limit", fmt.Sprint(limit))
		raw := v.Encode()
		if b.seen[raw] {
			continue
		}
		b.seen[raw] = true
		if minHits > 0 {
			// The margin is checked on the unlimited query, so deletes
			// running beside it cannot pull the count below the limit.
			v.Del("limit")
			all, err := b.oracle.Query(v.Encode())
			if err != nil || all.Len() < limit+minHits {
				continue
			}
		}
		res, err := b.oracle.Query(raw)
		if err != nil || res.Len() == 0 {
			continue
		}
		q := PoolQuery{Raw: raw, Shape: shape, Marker: marker, Want: res.Len()}
		if checked {
			body := netmark.ResultXML(res)
			if res.Transformed != nil {
				body = netmark.TransformedXML(res)
			}
			q.CRC = crc32.ChecksumIEEE([]byte(body))
		}
		out = append(out, q)
		misses = 0
	}
	return out
}

// share is one shape's part of a pool, in per cent.
type share struct {
	shape string
	pct   int
}

// BuildPool builds the workload's query pool against the oracle, which
// must hold exactly what netmarkd will serve when the queries run.
// churn names the documents the write phase deletes; stable queries
// avoid them.  Pool order is popularity order under a Zipf draw, and it
// is fixed: the shapes take turns, so rank k has the same shape on every
// seed.  A corpus shrunk for a smoke run may not have the vocabulary
// for a full pool; the caller decides whether a short one will do.
func (w *Workload) BuildPool(oracle *netmark.Netmark, docs []netmark.Doc, churn map[string]bool) ([]PoolQuery, error) {
	if err := oracle.RegisterStylesheet(SheetName, Sheet); err != nil {
		return nil, err
	}
	b := &poolBuilder{oracle: oracle, headings: oracle.Store().ContextHeadings(), seen: map[string]bool{}, next: map[string]int{}}
	b.terms, b.bigrams = vocabulary(docs)
	if len(b.terms) == 0 || len(b.bigrams) == 0 || len(b.headings) == 0 {
		return nil, fmt.Errorf("pool: corpus yields no vocabulary")
	}
	sort.Strings(b.headings)
	size, minHits := w.PoolSize, 0
	var stable []PoolQuery
	if w.StableHalf {
		// Half the pool is content queries on per-document serials that
		// no PUT or DELETE touches: they stay cached for the whole run.
		// The other half shares terms and headings with the churn, is
		// invalidated by it, and is saturated well past its limit so its
		// count stays pinned while its members change.
		for _, d := range docs {
			if n := docNumber(d.Name); n != "" && !churn[d.Name] {
				b.stable = append(b.stable, n)
			}
		}
		stable = b.collect(ShapeStableTerm, size/2, []int{10}, 0, true)
		size -= size / 2
		minHits = 2 * len(churn)
	}
	byShape := make([][]PoolQuery, len(w.Mix))
	found := 0
	for i, s := range w.Mix {
		byShape[i] = b.collect(s.shape, size*s.pct/100, w.Limits, minHits, w.PinBodies)
		found += len(byShape[i])
	}
	// Rounding, and shapes the vocabulary could not fill, go to content
	// queries, of which there are always more.
	byShape = append(byShape, b.collect(ShapeContent, size-found, w.Limits, minHits, w.PinBodies))

	// Deal the shapes out in turn, and the stable half between them.
	var pool []PoolQuery
	for dealt := true; dealt; {
		dealt = false
		for i := range byShape {
			if len(byShape[i]) == 0 {
				continue
			}
			if len(stable) > 0 {
				pool, stable = append(pool, stable[0]), stable[1:]
			}
			pool, byShape[i] = append(pool, byShape[i][0]), byShape[i][1:]
			dealt = true
		}
	}
	return append(pool, stable...), nil
}

// Schedule draws the open-loop writer's inter-arrival gaps: a floor
// (so one tick's work is over before the next is due) plus a seeded
// exponential, rescaled so the gaps sum to exactly the phase length.
// The number of ticks is fixed by the mean, not by the draw, so every
// seed offers the same load.
func Schedule(seed int64, seconds, mean float64) []float64 {
	n := ticks(seconds, mean)
	rng := rand.New(rand.NewSource(seed ^ 0x7061636572))
	gaps := make([]float64, n)
	var sum float64
	for i := range gaps {
		gaps[i] = mean/4 + rng.ExpFloat64()*mean*3/4
		sum += gaps[i]
	}
	for i := range gaps {
		gaps[i] *= seconds / sum
	}
	return gaps
}

// ticks is how many writer ticks fit a phase: at least one.
func ticks(seconds, mean float64) int {
	if n := int(seconds / mean); n > 1 {
		return n
	}
	return 1
}
