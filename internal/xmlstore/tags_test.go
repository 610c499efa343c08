package xmlstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/docform"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/sqlx"
)

// dictionary is the store's published tag dictionary: entry i is code i.
func dictionary(s *Store) []tagPair { return *s.tags.view.Load() }

// namesDoc is a raw-XML document whose records are elements named after
// names, each holding a line of text.
func namesDoc(file string, names ...string) BatchDoc {
	var b strings.Builder
	b.WriteString("<records>")
	for i, n := range names {
		fmt.Fprintf(&b, "<%s>%s value %d of %s</%s>", n, n, i, file, n)
	}
	b.WriteString("</records>")
	return BatchDoc{Name: file, Data: []byte(b.String())}
}

// seriesNames is prefix0 … prefix(n-1), from first on.
func seriesNames(prefix string, first, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, first+i)
	}
	return out
}

// sourceBytes is what the store should reconstruct for a raw document:
// its converted tree from the root element down, serialised.
func sourceBytes(t *testing.T, d BatchDoc) string {
	t.Helper()
	tree, _, err := docform.Convert(d.Name, d.Data)
	if err != nil {
		t.Fatal(err)
	}
	for tree.Kind == sgml.DocumentNode {
		tree = tree.FirstChild
	}
	return sgml.Serialize(tree)
}

// checkTagged fails unless every node reachable from one of the store's
// DOC rows decodes to a tag the dictionary holds, with the class and name
// that code stands for.
func checkTagged(t *testing.T, s *Store) {
	t.Helper()
	docs, err := s.Documents()
	if err != nil {
		t.Fatal(err)
	}
	dict := dictionary(s)
	for _, doc := range docs {
		root, err := s.FetchNode(doc.RootRowID)
		if err != nil {
			t.Fatalf("%s: root: %v", doc.FileName, err)
		}
		err = walkSubtree(root, s.FetchNode, func(n *Node, _ int) {
			code, ok := s.tags.known(tagPair{n.Class, n.Name})
			if !ok || dict[code] != (tagPair{n.Class, n.Name}) {
				t.Fatalf("%s: node %v is %v <%s>, which the dictionary does not hold", doc.FileName, n.RowID, n.Class, n.Name)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", doc.FileName, err)
		}
	}
}

// Documents that bring new names, their log cut at every record
// boundary: every node a surviving DOC row reaches decodes to a known
// tag, every surviving document reconstructs byte-identically, and the
// tags that survive are a prefix of the dictionary that was written —
// each code still names its pair.  With the whole log, reopening through
// the snapshot and through the scan rebuild gives the same dictionary.
func TestTagsSurviveCrashCuts(t *testing.T) {
	src := t.TempDir()
	db, s := openDir(t, src, OpenOptions{})
	first := []BatchDoc{
		namesDoc("a.xml", seriesNames("alpha", 0, 10)...),
		longDoc("long.html", 60, "tagged"),
		namesDoc("b.xml", seriesNames("alpha", 5, 10)...),
	}
	second := []BatchDoc{
		namesDoc("c.xml", append(seriesNames("beta", 0, 4), "alpha0")...),
		namesDoc("d.xml", seriesNames("gamma", 0, 70)...),
	}
	want := make(map[string]string)
	for _, batch := range [][]BatchDoc{first, second} {
		for _, r := range s.StoreBatch(batch, 2) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			want[r.Name] = reconstructBytes(t, s, r.Name)
		}
	}
	for _, d := range append(first, second...) {
		if want[d.Name] != sourceBytes(t, d) {
			t.Fatalf("%s does not reconstruct as it went in", d.Name)
		}
	}
	full := dictionary(s)
	if len(full) < 64+30 {
		t.Fatalf("the documents use %d tags; want codes past 64, which take two bytes", len(full))
	}
	db.CloseDiscard() // nothing checkpointed: the documents exist only in the log

	_, img := readLog(t, filepath.Join(src, "wal.nmlog"))
	data0, err := os.ReadFile(filepath.Join(src, "data.nmdb"))
	if err != nil {
		t.Fatal(err)
	}
	cuts := recordCuts(img)
	sawPartial := false
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.nmlog"), cut.log, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "data.nmdb"), data0, 0o644); err != nil {
			t.Fatal(err)
		}
		db, s := openDir(t, dir, OpenOptions{})
		dict := dictionary(s)
		if len(dict) > len(full) || !reflect.DeepEqual(dict, full[:len(dict)]) {
			t.Fatalf("cut %s: %d tags survive and are not a prefix of the %d written", cut.name, len(dict), len(full))
		}
		if len(dict) > 0 && len(dict) < len(full) {
			sawPartial = true
		}
		checkTagged(t, s)
		docs, err := s.Documents()
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range docs {
			if got := reconstructBytes(t, s, doc.FileName); got != want[doc.FileName] {
				t.Fatalf("cut %s: %s is not byte-identical", cut.name, doc.FileName)
			}
		}
		db.CloseDiscard()
	}
	if !sawPartial {
		t.Fatal("no cut kept some tags but not all: the cuts prove nothing")
	}

	// The whole log: recover, checkpoint, then open both ways.
	db, s = openDir(t, src, OpenOptions{})
	if !reflect.DeepEqual(dictionary(s), full) {
		t.Fatal("recovery from the whole log lost or moved tags")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []OpenOptions{{}, {DisableSnapshot: true}} {
		db, s := openDir(t, src, opts)
		if loaded := s.SnapshotStats().Loaded; loaded == opts.DisableSnapshot {
			t.Fatalf("%+v: snapshot loaded = %v", opts, loaded)
		}
		if !reflect.DeepEqual(dictionary(s), full) {
			t.Fatalf("%+v: the reopened dictionary differs", opts)
		}
		checkTagged(t, s)
		for name, tree := range want {
			if got := reconstructBytes(t, s, name); got != tree {
				t.Fatalf("%+v: %s is not byte-identical", opts, name)
			}
		}
		db.CloseDiscard()
	}
}

// The writer assigns codes in document order, so a batch gets the same
// codes — and, since a code's width decides a record's, the same
// placement — however its workers are scheduled.
func TestTagsDeterministicAcrossWorkers(t *testing.T) {
	var batch []BatchDoc
	for i := 0; i < 24; i++ {
		// Each document shares names with the ones beside it and brings a
		// few of its own: 24×4+8 = 104 names in all.
		batch = append(batch, namesDoc(fmt.Sprintf("n%02d.xml", i), seriesNames("field", 4*i, 12)...))
		if i%6 == 0 {
			batch = append(batch, longDoc(fmt.Sprintf("h%02d.html", i), 10+i, "words"))
		}
	}
	type outcome struct {
		table  []string
		dict   []tagPair
		placed map[string][]ordbms.RowID
	}
	run := func(workers int) outcome {
		s := memStore(t)
		out := outcome{placed: make(map[string][]ordbms.RowID)}
		for _, r := range s.StoreBatch(batch, workers) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			out.placed[r.Name] = docRowIDs(t, s, r.DocID)
		}
		err := s.tag.Scan(func(rid ordbms.RowID, row ordbms.Row) bool {
			out.table = append(out.table, fmt.Sprint(rid, row))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		out.dict = dictionary(s)
		return out
	}
	want := run(8)
	if len(want.dict) <= 64+8 {
		t.Fatalf("the batch uses %d tags; want more than 64 new names", len(want.dict))
	}
	for i, workers := range []int{8, 8, 1} {
		got := run(workers)
		if !reflect.DeepEqual(got.table, want.table) || !reflect.DeepEqual(got.dict, want.dict) {
			t.Fatalf("run %d (%d workers): the TAG table differs", i, workers)
		}
		if !reflect.DeepEqual(got.placed, want.placed) {
			t.Fatalf("run %d (%d workers): the documents were placed differently", i, workers)
		}
	}
}

// Concurrent StoreDocument callers that bring new names share the one
// dictionary while readers decode through it: every document reads back
// as it went in, and the TAG table holds exactly the dictionary.
func TestConcurrentStoresShareTags(t *testing.T) {
	s := memStore(t)
	const writers, docsEach = 4, 6
	stop := make(chan struct{})
	var readers, stores sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				docs, err := s.Documents()
				if err != nil {
					t.Error(err)
					return
				}
				for _, d := range docs {
					if _, err := s.Reconstruct(d.DocID); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	var docs []BatchDoc
	for w := 0; w < writers; w++ {
		for i := 0; i < docsEach; i++ {
			// Names of the writer's own and names every writer uses.
			names := append(seriesNames(fmt.Sprintf("w%dx", w), 3*i, 5), seriesNames("shared", i, 3)...)
			docs = append(docs, namesDoc(fmt.Sprintf("w%d-%d.xml", w, i), names...))
		}
	}
	for w := 0; w < writers; w++ {
		stores.Add(1)
		go func(mine []BatchDoc) {
			defer stores.Done()
			for _, d := range mine {
				if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
					t.Error(err)
				}
			}
		}(docs[w*docsEach : (w+1)*docsEach])
	}
	stores.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, d := range docs {
		if got := reconstructBytes(t, s, d.Name); got != sourceBytes(t, d) {
			t.Fatalf("%s does not reconstruct as it went in", d.Name)
		}
	}
	var rows []ordbms.Row
	if err := s.tag.Scan(func(_ ordbms.RowID, row ordbms.Row) bool {
		rows = append(rows, row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	table, err := tagPairs(rows)
	if err != nil || !reflect.DeepEqual(table, dictionary(s)) {
		t.Fatalf("the TAG table (%v) is not the dictionary", err)
	}
}

// A raw-XML document with 50 000 distinct element names — one code each,
// most three bytes wide — ingests, reconstructs byte-identically, and
// reopens through the snapshot and through the scan rebuild with the same
// dictionary.
func TestFiftyThousandNames(t *testing.T) {
	const names = 50000
	var b strings.Builder
	b.WriteString("<names>")
	for i := 0; i < names; i++ {
		fmt.Fprintf(&b, "<n%d/>", i)
	}
	b.WriteString("</names>")
	d := BatchDoc{Name: "names.xml", Data: []byte(b.String())}
	want := sourceBytes(t, d)
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
		t.Fatal(err)
	}
	if got := reconstructBytes(t, s, d.Name); got != want {
		t.Fatal("the document does not reconstruct as it went in")
	}
	dict := dictionary(s)
	if len(dict) != names+2 { // and <document> and <names>
		t.Fatalf("%d tags, want %d", len(dict), names+2)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []OpenOptions{{}, {DisableSnapshot: true}} {
		db, s := openDir(t, dir, opts)
		if got := reconstructBytes(t, s, d.Name); got != want {
			t.Fatalf("%+v: the document is not byte-identical after reopen", opts)
		}
		if !reflect.DeepEqual(dictionary(s), dict) {
			t.Fatalf("%+v: the reopened dictionary differs", opts)
		}
		db.CloseDiscard()
	}
}

// An XML row whose tag the dictionary does not hold is corrupt: fetching,
// scanning and rebuilding from it fail rather than serve a node with no
// class.
func TestUnknownTagIsAnError(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	ingest(t, s, "sample.html", sampleHTML)
	rid, err := s.xml.Insert(ordbms.Row{ordbms.I(99), ordbms.I(int64(len(dictionary(s)))), ordbms.S("orphan"),
		ordbms.Null(), ordbms.Null(), ordbms.Null(), ordbms.Null(), ordbms.Null()})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.FetchNode(rid); err == nil {
		t.Fatalf("FetchNode of an unknown tag = %+v", n)
	}
	s.EnableNodeCache(1 << 20)
	if n, err := s.FetchNode(rid); err == nil {
		t.Fatalf("FetchNode through the node cache of an unknown tag = %+v", n)
	}
	s.EnableNodeCache(0)
	if err := s.ScanNodes(func(*Node) bool { return true }); err == nil {
		t.Fatal("ScanNodes over an unknown tag succeeded")
	}
	// A DOC row whose root is the orphan, so the rebuild's walk reads it
	// wherever it landed, not only when it shares a page with the sample.
	if _, err := s.doc.Insert(ordbms.Row{ordbms.I(99), ordbms.S("orphan.xml"), ordbms.I(0), ordbms.I(0),
		ordbms.S("xml"), ordbms.S(""), ordbms.R(rid), ordbms.I(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseDiscard()
	if _, err := OpenWith(db, OpenOptions{DisableSnapshot: true}); err == nil {
		t.Fatal("the scan rebuild accepted an unknown tag")
	}
}

// A TAG table whose codes are not 0 … n-1, each once and each for a
// different pair, refuses to open.
func TestTagTableMustBeDense(t *testing.T) {
	for name, rows := range map[string][][3]ordbms.Value{
		"gap":          {{ordbms.I(0), ordbms.I(1), ordbms.S("a")}, {ordbms.I(2), ordbms.I(1), ordbms.S("b")}},
		"repeat code":  {{ordbms.I(0), ordbms.I(1), ordbms.S("a")}, {ordbms.I(0), ordbms.I(1), ordbms.S("b")}},
		"repeat pair":  {{ordbms.I(0), ordbms.I(1), ordbms.S("a")}, {ordbms.I(1), ordbms.I(1), ordbms.S("a")}},
		"no class":     {{ordbms.I(0), ordbms.I(0), ordbms.S("a")}},
		"null code":    {{ordbms.Null(), ordbms.I(1), ordbms.S("a")}},
		"negative":     {{ordbms.I(-1), ordbms.I(1), ordbms.S("a")}},
		"class beyond": {{ordbms.I(0), ordbms.I(int64(sgml.ClassSimulation) + 1), ordbms.S("a")}},
	} {
		t.Run(name, func(t *testing.T) {
			db, err := ordbms.Open(ordbms.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tag, err := db.CreateTable("TAG", tagSchema)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if _, err := tag.Insert(ordbms.Row(r[:])); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := Open(db); err == nil {
				t.Fatal("Open accepted the TAG table")
			}
		})
	}
}

// Fig 5's NODETYPE and NODENAME stay queryable: joining XML to TAG on the
// code gives every node its class and name.  Text sits on element rows
// since they absorb a lone text child, so a paragraph's text is its <p>
// row's nodedata.  The sample goes in after the XML table has trained
// its symbol table, so its nodedata is stored coded, and SQL reads and
// filters it as the text it stands for.
func TestTagJoinThroughSQL(t *testing.T) {
	s := memStore(t)
	for _, d := range corpus.New(3).Mixed(40) {
		ingest(t, s, d.Name, string(d.Data))
	}
	if err := s.DB().Commit(); err != nil {
		t.Fatal(err)
	}
	if s.xml.Schema().Symbols() == nil {
		t.Fatal("the XML table has no symbol table after 40 documents")
	}
	ingest(t, s, "sample.html", sampleHTML)
	res, err := sqlx.New(s.DB()).Exec(`SELECT XML.nodedata, TAG.nodetype, TAG.nodename FROM XML JOIN TAG ON XML.tag = TAG.tag`)
	if err != nil {
		t.Fatal(err)
	}
	var want [][3]string
	if err := s.ScanNodes(func(n *Node) bool {
		want = append(want, [3]string{n.Data, fmt.Sprint(int(n.Class)), n.Name})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) || len(want) == 0 {
		t.Fatalf("the join returns %d rows for %d nodes", len(res.Rows), len(want))
	}
	withData, named := 0, 0
	for i, row := range res.Rows {
		got := [3]string{row[0].Str, fmt.Sprint(row[1].Int), row[2].Str}
		if got != want[i] {
			t.Fatalf("row %d: the join says %q, the node is %q", i, got, want[i])
		}
		if row[0].Str != "" {
			withData++
		}
		if row[2].Str != "" {
			named++
		}
	}
	if withData == 0 || named == 0 {
		t.Fatalf("%d rows with nodedata and %d named rows: the join proves little", withData, named)
	}
	// Every <p> row, in order; the sample's three paragraphs among them.
	res, err = sqlx.New(s.DB()).Exec(`SELECT XML.nodedata FROM XML JOIN TAG ON XML.tag = TAG.tag WHERE TAG.nodename = 'p'`)
	if err != nil {
		t.Fatal(err)
	}
	var paras []string
	for _, w := range want {
		if w[2] == "p" {
			paras = append(paras, w[0])
		}
	}
	var sample []string
	for i, row := range res.Rows {
		if i >= len(paras) || row[0].Str != paras[i] {
			t.Fatalf("paragraph %d by SQL is %q; the <p> nodes hold %q", i, row[0].Str, paras)
		}
		if strings.Contains(sampleHTML, "<p>"+row[0].Str+"</p>") {
			sample = append(sample, row[0].Str)
		}
	}
	const gap = "The gap is shrinking across propulsion systems."
	if len(res.Rows) != len(paras) || len(sample) != 3 || sample[1] != gap {
		t.Fatalf("%d paragraphs by SQL for %d <p> nodes; the sample's: %q", len(res.Rows), len(paras), sample)
	}
	// Filtering on nodedata compares the text, not its codes.
	res, err = sqlx.New(s.DB()).Exec(`SELECT XML.nodedata FROM XML JOIN TAG ON XML.tag = TAG.tag WHERE TAG.nodename = 'p' AND XML.nodedata = '` + gap + `'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != gap {
		t.Fatalf("the paragraph by SQL: %v", res.Rows)
	}
	// The row SQL read is stored coded: without the table's symbol table
	// its record does not decode.
	var rid ordbms.RowID
	if err := s.ScanNodes(func(n *Node) bool {
		if n.Data == gap {
			rid = n.RowID
		}
		return rid.IsZero()
	}); err != nil || rid.IsZero() {
		t.Fatalf("no node holds %q: %v", gap, err)
	}
	if err := s.xml.FetchView(rid, func(rec []byte) error {
		_, err := ordbms.DecodeRow(xmlSchema, rid, rec)
		return err
	}); err == nil {
		t.Fatalf("%q is stored raw", gap)
	}
}

// Fig 5's DOC_ID stays queryable where it is stored: joining XML to DOC
// on docid gives each heading, and each root, its document, and joining
// a node's parentrowid to DOC's rootrowid gives the root's children theirs.
func TestDocJoinThroughSQL(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "sample.html", sampleHTML)
	ingest(t, s, "parts.xml", `<inventory><widget><label>Cryo Valve</label></widget></inventory>`)
	docs, err := s.Documents()
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	if err := s.ScanNodes(func(n *Node) bool {
		nodes = append(nodes, n)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql  string
		want func(n *Node) bool // the nodes the join returns, in scan order
	}{
		{`SELECT DOC.filename, XML.nodedata FROM XML JOIN DOC ON XML.docid = DOC.docid`,
			func(n *Node) bool { return n.DocID != 0 }},
		{`SELECT DOC.filename, XML.nodedata FROM XML JOIN DOC ON XML.parentrowid = DOC.rootrowid`,
			func(n *Node) bool {
				for _, d := range docs {
					if n.ParentRowID == d.RootRowID {
						return true
					}
				}
				return false
			}},
	} {
		res, err := sqlx.New(s.DB()).Exec(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var want [][2]string
		for _, n := range nodes {
			if c.want(n) {
				id, err := s.docOf(n)
				if err != nil {
					t.Fatal(err)
				}
				d, err := s.Document(id)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, [2]string{d.FileName, n.Data})
			}
		}
		got := make([][2]string, len(res.Rows))
		files := make(map[string]bool)
		for i, row := range res.Rows {
			got[i] = [2]string{row[0].Str, row[1].Str}
			files[row[0].Str] = true
		}
		if !reflect.DeepEqual(got, want) || len(files) != 2 {
			t.Fatalf("%s:\n got %q\nwant %q", c.sql, got, want)
		}
	}
}

// The store keeps no secondary index on XML or TAG, but an operator may
// create one through SQL, and every later ingest keeps it whole: batches
// and single documents, before and after the XML table trains its symbol
// table, with each node's links as finally stored.
func TestSQLIndexesFollowIngest(t *testing.T) {
	s := memStore(t)
	ingest(t, s, "sample.html", sampleHTML)
	sql := sqlx.New(s.DB())
	for _, q := range []string{
		`CREATE INDEX ON XML (tag)`, `CREATE INDEX ON XML (nodedata)`, `CREATE INDEX ON XML (parentrowid)`,
		`CREATE INDEX ON TAG (tag)`, `CREATE INDEX ON TAG (nodename)`,
	} {
		if _, err := sql.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	docs := corpus.New(5).Mixed(60)
	for from := 0; from < len(docs); from += 20 {
		var batch []BatchDoc
		for _, d := range docs[from : from+20] {
			batch = append(batch, BatchDoc{Name: d.Name, Data: d.Data})
		}
		for _, r := range s.StoreBatch(batch, 2) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	ingest(t, s, "names.xml", string(namesDoc("names.xml", "fresh", "newer").Data))
	if s.xml.Schema().Symbols() == nil {
		t.Fatal("the XML table has no symbol table after 60 documents")
	}

	holds := func(tbl *ordbms.Table, col string, v ordbms.Value, rid ordbms.RowID) {
		t.Helper()
		hits, err := tbl.Lookup(col, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			if h == rid {
				return
			}
		}
		t.Fatalf("%s.%s = %v finds %v, not the row at %v", tbl.Name(), col, v, hits, rid)
	}
	nodes := 0
	if err := s.xml.Scan(func(rid ordbms.RowID, row ordbms.Row) bool {
		nodes++
		holds(s.xml, "tag", row[xmlColTag], rid)
		if row[xmlColNodeData].Type == ordbms.TypeString {
			holds(s.xml, "nodedata", row[xmlColNodeData], rid)
		}
		if row[xmlColParentRowID].Type == ordbms.TypeRowID {
			holds(s.xml, "parentrowid", row[xmlColParentRowID], rid)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	tags := 0
	if err := s.tag.Scan(func(rid ordbms.RowID, row ordbms.Row) bool {
		tags++
		holds(s.tag, "tag", row[0], rid)
		if row[2].Type == ordbms.TypeString {
			holds(s.tag, "nodename", row[2], rid)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.xml.Index("tag").Len(); got != nodes {
		t.Fatalf("the XML tag index holds %d rows for %d nodes", got, nodes)
	}
	if hits, _ := s.tag.Lookup("nodename", ordbms.S("fresh")); len(hits) != 1 || tags < 10 {
		t.Fatalf("TAG holds %d rows; nodename \"fresh\" finds %v", tags, hits)
	}
}
