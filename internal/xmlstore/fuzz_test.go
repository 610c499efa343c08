package xmlstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"netmark/internal/docform"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
)

// FuzzApplySnapshot throws hostile payloads at the xmlstore.nmsnap
// decoder.  The frame's CRC has already passed by the time a payload gets
// here, so whatever the bytes say, the only acceptable outcomes are
// applied or refused ("corrupt", then the scan rebuild): no panic, and no
// allocation larger than the payload could describe.  A payload the
// store wrote must apply and re-encode to the same bytes.
func FuzzApplySnapshot(f *testing.F) {
	s := memStore(f)
	ingest(f, s, "sample.html", sampleHTML)
	real := s.encodeSnapshot()
	f.Add(real)
	f.Add(real[:len(real)-1])
	f.Add([]byte{})
	// Three zero counters, an empty text index, then a heading index of
	// one heading whose length wraps int negative.
	huge := textindex.New().AppendSnapshot([]byte{0, 0, 0})
	huge = binary.AppendUvarint(huge, 1)
	f.Add(binary.AppendUvarint(huge, ^uint64(0)))
	// No headings, then what version 7 wrote next: three node→CONTEXT
	// entries whose heading deltas climb past 48 bits, fall below zero and
	// cancel out — trailing bytes since version 8.
	v7 := textindex.New().AppendSnapshot([]byte{0, 0, 0})
	v7 = append(v7, 0, 3)
	for _, d := range []int64{1 << 50, -(1<<50 + 9), 9} {
		v7 = binary.AppendVarint(binary.AppendUvarint(v7, 1), d)
	}
	f.Add(v7)
	// What version 8 wrote for one heading "a" and three rid deltas that
	// climb past 48 bits, fall below zero and cancel out: a heading index
	// claiming three blocks now.
	ridWrap := textindex.New().AppendSnapshot([]byte{0, 0, 0})
	ridWrap = append(ridWrap, 1, 1, 'a', 3)
	for _, d := range []int64{1 << 50, -(1<<50 + 9), 9} {
		ridWrap = binary.AppendVarint(ridWrap, d)
	}
	f.Add(ridWrap)
	// A store with deletes and headings that many sections share, so the
	// heading lists run long and carry removals.
	rich := memStore(f)
	loadDeepCorpus(f, rich)
	docs, err := rich.Documents()
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range docs[:3] {
		if err := rich.DeleteDocument(d.DocID); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(rich.encodeSnapshot())
	f.Fuzz(func(t *testing.T, p []byte) {
		s := &Store{}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.applySnapshot(p)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<18+256*uint64(len(p)) {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(p), grew)
		}
		if err != nil {
			return
		}
		enc := s.encodeSnapshot()
		if bytes.Equal(p, real) && !bytes.Equal(enc, real) {
			t.Fatalf("the store's own snapshot re-encodes differently")
		}
		// Whatever applies settles after one round trip.
		again := &Store{}
		if err := again.applySnapshot(enc); err != nil {
			t.Fatalf("re-encoded snapshot does not apply: %v", err)
		}
		if !bytes.Equal(again.encodeSnapshot(), enc) {
			t.Fatalf("snapshot re-encodes differently after a round trip")
		}
	})
}

// FuzzReadSnapshotFile throws whole xmlstore.nmsnap files at the
// engine's snapshot read and what it returns at the payload decoder, as
// an open does.  No input may panic or allocate more than
// FuzzApplySnapshot allows a payload of the file's size, whatever its
// size word claims; a payload the read returns is what its stream
// inflates to.  Of the seeds, the file the store wrote loads and applies,
// the raw frame earlier builds wrote reads as "version", and a deflate
// bomb, its size word under what the stream inflates to or past the
// bound a stream's bytes allow, reads as "corrupt".
func FuzzReadSnapshotFile(f *testing.F) {
	dir := f.TempDir()
	db, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	s, err := Open(db)
	if err != nil {
		f.Fatal(err)
	}
	loadDeepCorpus(f, s)
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	// The DB the inputs are read through: its catalog generation and log
	// end are the stamps of the file the close wrote.
	if db, err = ordbms.Open(ordbms.Options{Dir: dir}); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.CloseDiscard() })
	path := filepath.Join(dir, snapshotName)
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	raw := rawSnapshot(real, snapshotVersion, snapshotPayload(f, real))
	// A megabyte of zeros deflated, under a size word of the most its
	// stream may inflate to, and under its true size, past that bound.
	var z bytes.Buffer
	zw, _ := flate.NewWriter(&z, flate.BestCompression)
	zw.Write(make([]byte, 1<<20))
	zw.Close()
	bomb := append(append([]byte(nil), real[:40]...), z.Bytes()...)
	binary.LittleEndian.PutUint32(bomb[12:], crc32.ChecksumIEEE(bomb[24:]))
	binary.LittleEndian.PutUint64(bomb[16:], uint64(64*z.Len())|1<<63)
	huge := append([]byte(nil), bomb...)
	binary.LittleEndian.PutUint64(huge[16:], 1<<20|1<<63)
	seeds := map[string]string{string(real): "", string(raw): "version", string(bomb): "corrupt", string(huge): "corrupt"}
	for _, seed := range [][]byte{real, raw, bomb, huge, real[:len(real)-1], {}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		if err := os.WriteFile(path, p, 0o644); err != nil {
			t.Fatal(err)
		}
		s := &Store{}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload, reason := db.ReadSnapshotFile(snapshotName, snapshotMagic, snapshotVersion)
		var applied error
		if reason == "" {
			applied = s.applySnapshot(payload)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<18+256*uint64(len(p)) {
			t.Fatalf("a %d-byte file allocated %d bytes", len(p), grew)
		}
		if want, ok := seeds[string(p)]; ok && (reason != want || want == "" && applied != nil) {
			t.Fatalf("seed reads as %q (applied: %v), want %q", reason, applied, want)
		}
		if reason != "" {
			return
		}
		inflated, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(p[40:])), int64(len(payload))+1))
		if err != nil || !bytes.Equal(inflated, payload) {
			t.Fatalf("read a %d-byte payload from a stream that inflates to %d bytes (%v)", len(payload), len(inflated), err)
		}
	})
}

// FuzzStoreReconstruct stores whatever arbitrary bytes parse to, in XML
// or HTML mode, and reads the document back.  Reconstruct must serialise
// exactly as the parsed tree does once cut down to what the store keeps:
// the root element, without comments, doctypes and processing
// instructions.  No input may panic, and parse, store and reconstruct
// together allocate no more than FuzzApplySnapshot allows a payload plus
// 1 KiB a kept node, since an input can buy a node for two or three
// bytes.  That is at least twice what any seed, or a minute of fuzzing,
// has needed: the densest, 2 000 HTML paragraphs in 5 000 bytes, takes
// 48 % of it, about 860 bytes a node.  The
// document's title is the root's non-empty title attribute, as
// docform.Convert gives it, so a root may store the title marker.  The
// seeds cover every element and heading shape the store folds or keeps,
// every title the root may or may not stand in for, and the densest node
// shapes; a chain of unclosed headings was quadratic before a heading's
// text left out the headings nested in it.  testdata keeps the
// input "<?>", on which the lexer sliced a processing instruction out of
// its own opener and panicked.  The document streamed as GET /doc writes
// it, events from the node images straight into the encoder, is
// byte-identical to the reconstructed tree's indented serialization.
func FuzzStoreReconstruct(f *testing.F) {
	for _, seed := range []string{
		`<report><heading>Intro</heading><para>body</para></report>`,
		`<report><heading> </heading><para>whitespace-only heading</para></report>`,
		`<report><heading>Mixed <b>bold</b> tail</heading><para>x</para></report>`,
		`<report><heading id="7" class="a &amp; b">Attributes</heading></report>`,
		`<report><section><heading>Outer</heading><section><heading>Inner</heading><para>y</para></section></section></report>`,
		`<heading>Root</heading>`,
		`<report><heading></heading><heading>kept<!-- c --></heading><heading> Padded  text </heading></report>`,
		`<report><para id="1" class="a &amp; b">attributes</para><item/></report>`,
		`<para>root text only</para>`,
		"<report><para> \n\t </para><para>\n</para></report>",
		`<report><para>mixed <b>bold</b> tail</para><para><i>inner</i></para></report>`,
		`<document title="Report"><para>x</para></document>`,
		`<document title="Report">root text</document>`,
		`<document title="Report" lang="en"><para>x</para></document>`,
		`<document lang="en" title="Report"/>`,
		`<document title=""><para>x</para></document>`,
		`<document title="a" title="b"><para>x</para></document>`,
		`<document TITLE="Report"><para>x</para></document>`,
	} {
		f.Add([]byte(seed), false)
	}
	f.Add([]byte(sampleHTML), true)
	// The most nodes a byte can buy, deep and wide, and nested headings.
	f.Add([]byte(strings.Repeat("<a>", 1000)), false)
	f.Add([]byte("<r>"+strings.Repeat("<a/>x", 1000)), false)
	f.Add([]byte(strings.Repeat("<p>x", 1000)), true)
	f.Add([]byte(strings.Repeat("<h1>x", 1000)), true)
	f.Fuzz(func(t *testing.T, src []byte, html bool) {
		mode, cfg := sgml.ModeXML, sgml.XMLConfig()
		if html {
			mode, cfg = sgml.ModeHTML, sgml.HTMLConfig()
		}
		s := memStore(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tree, err := sgml.ParseString(string(src), mode)
		if err != nil {
			return
		}
		meta := docform.Meta{FileName: "fuzz"}
		for c := tree.FirstChild; c != nil; c = c.NextSibling {
			if c.Kind == sgml.ElementNode {
				meta.Title, _ = c.Attr("title")
				break
			}
		}
		id, err := s.StoreDocument(meta, tree, cfg)
		if err != nil {
			return // no root element, or a record no page can hold
		}
		got, err := s.Reconstruct(id)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		kept := keptTree(tree)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<18+256*uint64(len(src))+1024*uint64(kept.CountNodes()) {
			t.Fatalf("a %d-byte input of %d nodes allocated %d bytes", len(src), kept.CountNodes(), grew)
		}
		if want := sgml.Serialize(kept); sgml.Serialize(got) != want {
			t.Fatalf("stored %q, reconstructed\n%s\nwant\n%s", src, sgml.Serialize(got), want)
		}
		var streamed, built bytes.Buffer
		if err := s.EmitDocument(id, sgml.NewEncoder(&streamed, true)); err != nil {
			t.Fatal(err)
		}
		if err := sgml.WriteIndent(&built, got); err != nil {
			t.Fatal(err)
		}
		if streamed.String() != built.String() {
			t.Fatalf("stored %q, streamed\n%s\nwhere the reconstructed tree writes\n%s", src, streamed.String(), built.String())
		}
	})
}

// keptTree copies the part of a parsed tree StoreDocument stores: the
// first root element, with only element and text nodes beneath it.
func keptTree(tree *sgml.Node) *sgml.Node {
	for c := tree.FirstChild; tree.Kind == sgml.DocumentNode && c != nil; c = c.NextSibling {
		if c.Kind == sgml.ElementNode {
			return keptTree(c)
		}
	}
	if tree.Kind == sgml.TextNode {
		return sgml.NewText(tree.Data)
	}
	out := sgml.NewElement(tree.Name, tree.Attrs...)
	for c := tree.FirstChild; c != nil; c = c.NextSibling {
		if c.Kind == sgml.ElementNode || c.Kind == sgml.TextNode {
			out.AppendChild(keptTree(c))
		}
	}
	return out
}

// FuzzDecodeRow throws hostile bytes, read from any RowID, at the record
// decoder under the three schemas every stored byte is read with (XML,
// DOC, TAG), and XML's again with a symbol table (table picks one).  It
// must never panic, never build values bigger than the bytes it was
// given — or, coded, than 8 bytes a code — never read a near link to a
// slot outside the page's directory, and whatever it accepts must be a
// row: one that validates and, uncoded, encoded again at the same RowID
// with the same links near, gives back the same bytes — or fewer, when b
// spelled a varint longer than it needs.  Encode, which writes every
// ROWID far, may grow an uncoded record by RowIDSize−NearRowIDSize bytes
// a link, and what it writes decodes back to the same row from any
// RowID.  An XML row then becomes a node exactly when its tag is one the
// dictionary holds — any other code is an error, never a node with an
// empty class — and a TAG row is a dictionary exactly when it is code 0
// of a real node class.
func FuzzDecodeRow(f *testing.F) {
	const xmlTable, docTable, tagTable, codedTable = 0, 1, 2, 3
	st, err := ordbms.ParseSymbols(goldenSymbols)
	if err != nil {
		f.Fatal(err)
	}
	coded := xmlSchema.WithSymbols(st)
	const directory = (ordbms.PageSize - 16) / 2 // a page's slot-directory entries, 2 bytes each after a 16-byte header
	golden, _ := hex.DecodeString(goldenRecord)
	at := goldenNode.RowID
	f.Add(golden, at.Page, at.Slot, uint8(xmlTable))
	f.Add(golden[:len(golden)-1], at.Page, at.Slot, uint8(xmlTable)) // last link cut short
	f.Add(append(golden[:len(golden):len(golden)], 0), at.Page, at.Slot, uint8(xmlTable))
	f.Add(golden, at.Page, uint16(1), uint8(xmlTable))     // parent link lands on slot 0, prev link below it
	f.Add([]byte{0xFF}, at.Page, at.Slot, uint8(xmlTable)) // every column NULL
	f.Add([]byte{0xFF}, at.Page, at.Slot, uint8(docTable))
	f.Add([]byte{0x37}, at.Page, at.Slot, uint8(tagTable)) // bitmap bits past TAG's three columns
	f.Add([]byte{}, at.Page, at.Slot, uint8(docTable))
	f.Add([]byte{0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, at.Page, at.Slot, uint8(xmlTable)) // a string longer than the record
	// Every boundary of a far payload, in each link column and in
	// DOC.rootrowid: zero, the largest slot, the largest page, both — read
	// from the largest page too.
	rids := []ordbms.RowID{{}, {Slot: 1<<15 - 1}, {Page: 1<<32 - 1}, {Page: 1<<32 - 1, Slot: 1<<15 - 1}}
	xmlRow := func(links [4]ordbms.RowID) ordbms.Row {
		row := ordbms.Row{ordbms.I(1 << 62), ordbms.I(0), ordbms.Null()}
		for _, l := range links {
			row = append(row, ordbms.R(l))
		}
		return append(row, ordbms.S(`a="b"`))
	}
	for _, rid := range rids {
		f.Add(xmlSchema.Encode(xmlRow([4]ordbms.RowID{rid, rid, rid, rid})), rid.Page, rid.Slot, uint8(xmlTable))
		f.Add(docSchema.Encode(ordbms.Row{
			ordbms.I(1), ordbms.S("f.html"), ordbms.I(0), ordbms.I(0), ordbms.S("html"), ordbms.Null(), ordbms.R(rid), ordbms.I(3),
		}), rid.Page, rid.Slot, uint8(docTable))
	}
	// Near payloads at both ends of their reach, Δ = −64 and 63, beside a
	// self-link and a far one; then the same record read from slots where
	// the −64 lands below slot 0 and where the 63 lands on the directory's
	// end, or beyond it.
	mid := ordbms.RowID{Page: 7, Slot: 100}
	edges := [4]ordbms.RowID{{Page: 7, Slot: 36}, {Page: 7, Slot: 163}, mid, {Page: 8, Slot: 100}}
	near, _, _ := xmlSchema.EncodeOffsets(nil, nil, xmlRow(edges), mid, allNear)
	for _, slot := range []uint16{mid.Slot, 63, 64, directory - 64, directory - 63, 1<<16 - 1} {
		f.Add(near, mid.Page, slot, uint8(xmlTable))
	}
	// A far payload cut short, and one whose slot field has every bit set.
	f.Add(near[:len(near)-len(`a="b"`)-4], mid.Page, mid.Slot, uint8(xmlTable))                  // childrowid's far payload 3 bytes short
	f.Add([]byte{0xF7, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, mid.Page, mid.Slot, uint8(xmlTable)) // parentrowid alone: rid(4294967295.32767)
	// Tag codes in and out of the dictionary: each end of it, one past,
	// negative, NULL, and the widest varints.
	for _, code := range []ordbms.Value{ordbms.I(0), ordbms.I(1), ordbms.I(2), ordbms.I(-1), ordbms.I(1<<63 - 1), ordbms.I(-1 << 63), ordbms.Null()} {
		row := ordbms.Row{ordbms.I(7), code, ordbms.S("x"), ordbms.Null(), ordbms.Null(), ordbms.Null(), ordbms.Null(), ordbms.Null()}
		f.Add(xmlSchema.Encode(row), at.Page, at.Slot, uint8(xmlTable))
		f.Add(tagSchema.Encode(ordbms.Row{code, ordbms.I(int64(sgml.ClassElement)), ordbms.S("para")}), at.Page, at.Slot, uint8(tagTable))
	}
	f.Add(tagSchema.Encode(ordbms.Row{ordbms.I(0), ordbms.I(2), ordbms.Null()}), at.Page, at.Slot, uint8(tagTable))
	f.Add(tagSchema.Encode(ordbms.Row{ordbms.I(0), ordbms.I(6), ordbms.S("p")}), at.Page, at.Slot, uint8(tagTable))
	f.Add(tagSchema.Encode(ordbms.Row{ordbms.I(0), ordbms.I(257), ordbms.S("p")}), at.Page, at.Slot, uint8(tagTable))
	// Coded strings: the golden folded <para>, raw and coded, and its
	// coded nodedata broken three ways — an escape as the last byte, a
	// code past the table's two, and the coded flag read with no table.
	folded, foldedNear := goldenRow(f, goldenStore(), goldenFolded)
	rawFolded, _, _ := xmlSchema.EncodeOffsets(nil, nil, folded, goldenFolded.RowID, foldedNear)
	codedFolded, _, _ := coded.EncodeOffsets(nil, nil, folded, goldenFolded.RowID, foldedNear)
	at = goldenFolded.RowID
	f.Add(rawFolded, at.Page, at.Slot, uint8(codedTable))
	f.Add(codedFolded, at.Page, at.Slot, uint8(codedTable))
	f.Add([]byte{0xf1, 0x00, 0x05, 0x01, 0xff, 0x03}, at.Page, at.Slot, uint8(codedTable))      // "hi", then an escape with no byte
	f.Add([]byte{0xf1, 0x00, 0x03, 0x02, 0x03}, at.Page, at.Slot, uint8(codedTable))            // code 2: the table has 0 and 1
	f.Add(codedFolded, at.Page, at.Slot, uint8(xmlTable))                                       // coded, and no table to read it with
	f.Add([]byte{0xf1, 0x00, 0x07, 0xff, 'h', 0x01, 0x03}, at.Page, at.Slot, uint8(codedTable)) // an escaped byte, then a code: "hhi"
	s := goldenStore()
	f.Fuzz(func(t *testing.T, b []byte, page uint32, slot uint16, table uint8) {
		schema := [...]ordbms.Schema{xmlSchema, docSchema, tagSchema, coded}[table%4]
		isCoded := schema.Symbols() != nil
		at := ordbms.RowID{Page: page, Slot: slot}
		row, err := ordbms.DecodeRow(schema, at, b)
		if err != nil {
			return
		}
		payload, links := 0, 0
		for i, v := range row {
			payload += len(v.Str) + len(v.Bytes)
			if schema.Columns[i].Type == ordbms.TypeRowID {
				links++
			}
		}
		limit := len(b)
		if isCoded {
			limit *= 8
		}
		if payload > limit {
			t.Fatalf("%d bytes decoded into %d bytes of strings", len(b), payload)
		}
		if err := schema.Validate(row); err != nil {
			t.Fatalf("decoded row does not fit its schema: %v", err)
		}
		near := nearColumns(schema, row, b)
		for i, v := range row {
			if near&(1<<i) != 0 && (v.RowID().Page != page || v.RowID().Slot >= directory) {
				t.Fatalf("column %d: a near link read at %v names %v", i, at, v.RowID())
			}
		}
		// Codes b chose need not be the ones Encode would: the lengths
		// hold for uncoded records only.
		same, _, _ := schema.EncodeOffsets(nil, nil, row, at, near)
		if !isCoded && (len(same) > len(b) || (len(same) == len(b) && !bytes.Equal(same, b))) {
			t.Fatalf("%x read at %v re-encodes as %x", b, at, same)
		}
		enc := schema.Encode(row)
		if !isCoded && len(enc) > len(b)+(ordbms.RowIDSize-ordbms.NearRowIDSize)*links {
			t.Fatalf("%d bytes re-encode to %d", len(b), len(enc))
		}
		again, err := ordbms.DecodeRow(schema, ordbms.RowID{Page: page + 1, Slot: slot + 1}, enc) // far links name their RowID
		if err != nil {
			t.Fatalf("re-encoded row does not decode: %v", err)
		}
		if !bytes.Equal(schema.Encode(again), enc) {
			t.Fatalf("row %v re-encodes differently after a round trip", row)
		}
		for i := range row {
			if !row[i].Equal(again[i]) || row[i].Type != again[i].Type {
				t.Fatalf("column %d: %v became %v", i, row[i], again[i])
			}
		}
		switch table % 4 {
		case xmlTable, codedTable:
			// attrs parsing must survive whatever a string column held
			n, err := s.nodeFromCols(at, row)
			code := row[xmlColTag]
			known := !code.IsNull() && code.Int >= 0 && code.Int < int64(len(goldenTags))
			switch {
			case known && (err != nil || n.Class != goldenTags[code.Int].class || n.Name != goldenTags[code.Int].name):
				t.Fatalf("tag %d decodes to %+v, %v, want %v", code.Int, n, err, goldenTags[code.Int])
			case !known && (err == nil || n != nil):
				t.Fatalf("tag %v is not in the dictionary, yet decodes to %+v, %v", code, n, err)
			}
		case tagTable:
			pairs, err := tagPairs([]ordbms.Row{row})
			class := row[tagColNodeType].Int
			valid := row[tagColTag].Int == 0 && !row[tagColTag].IsNull() &&
				class >= int64(sgml.ClassElement) && class <= int64(sgml.ClassSimulation)
			if valid != (err == nil) || (err == nil && (len(pairs) != 1 || int64(pairs[0].class) != class || pairs[0].name != row[tagColNodeName].Str)) {
				t.Fatalf("TAG row %v reads as %v, %v", row, pairs, err)
			}
		}
	})
}

// nearColumns is the mask of row's ROWID columns that b, a record it was
// decoded from, stores near: it walks b's payloads as the decoder did.
// The store's three schemas hold only INT, STRING and ROWID columns.
func nearColumns(schema ordbms.Schema, row ordbms.Row, b []byte) (near uint64) {
	pos := (len(row) + 7) / 8
	for i, c := range schema.Columns {
		if row[i].IsNull() {
			continue
		}
		switch c.Type {
		case ordbms.TypeInt:
			_, m := binary.Varint(b[pos:])
			pos += m
		case ordbms.TypeString:
			l, m := binary.Uvarint(b[pos:])
			pos += m + int(l>>1)
		case ordbms.TypeRowID:
			if b[pos]&0x80 == 0 {
				near |= 1 << i
				pos += ordbms.NearRowIDSize
			} else {
				pos += ordbms.RowIDSize
			}
		}
	}
	return near
}
