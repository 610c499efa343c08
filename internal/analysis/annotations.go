package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// Facts is the package's annotation table, keyed by the types.Object of
// each annotated struct field so use sites resolve with one map probe.
type Facts struct {
	// Guards maps a guarded field to the name of the sibling mutex
	// field that must be held to touch it ("guarded by <mu>").
	Guards map[types.Object]string
	// Hot marks mutex fields that must never be held across blocking
	// operations ("netmarkvet:hot").
	Hot map[types.Object]bool
	// Order gives a mutex field's acquisition rank
	// ("netmarkvet:lockorder <n>"); locks must be taken in ascending
	// rank within one function.
	Order map[types.Object]int
	// Cow marks copy-on-write published slice fields
	// ("netmarkvet:cow").
	Cow map[types.Object]bool
	// Mutators holds the functions allowed to reassign cow fields
	// ("netmarkvet:mutator").
	Mutators map[*ast.FuncDecl]bool
	// Snap marks persistable fields that must round-trip through the
	// snapshot encode and decode paths ("netmarkvet:snap").
	Snap map[types.Object]bool
	// SnapEncode / SnapDecode hold the snapshot codec roots
	// ("netmarkvet:snap-encode" / "netmarkvet:snap-decode" on a
	// function): snapcover closes over their same-package callees.
	SnapEncode map[*ast.FuncDecl]bool
	SnapDecode map[*ast.FuncDecl]bool
	// Persistence reports whether any file's package doc opts the
	// package into the fsyncrename and vfsonly invariants.  The
	// "netmarkvet:persistence" tag must stand on a doc line of its own:
	// prose *mentioning* the tag (a tooling package documenting it, the
	// vfs boundary layer referring to it) must not opt a package in.
	Persistence bool
}

var (
	guardedRe   = regexp.MustCompile(`(?i)\bguarded by (\w+)\b`)
	lockorderRe = regexp.MustCompile(`\bnetmarkvet:lockorder\s+(\d+)\b`)
	ignoreRe    = regexp.MustCompile(`\bnetmarkvet:ignore\b([^\n]*)`)
	// "netmarkvet:snap" must not also match the snap-encode/snap-decode
	// function annotations, so the tag ends at whitespace or EOF.
	snapRe = regexp.MustCompile(`netmarkvet:snap(\s|$)`)
	// The persistence opt-in is a whole line, so documentation that
	// merely mentions the tag mid-sentence does not opt a package in.
	persistenceRe = regexp.MustCompile(`(?m)^\s*netmarkvet:persistence\s*$`)
)

// parseIgnore returns nil when text has no ignore annotation, an empty
// slice for a bare "netmarkvet:ignore" (all analyzers), or the analyzer
// names listed after it.
func parseIgnore(text string) []string {
	m := ignoreRe.FindStringSubmatch(text)
	if m == nil {
		return nil
	}
	rest := strings.TrimSpace(m[1])
	// Anything after "—" or "--" is prose explaining the suppression.
	for _, sep := range []string{"—", "--", "("} {
		if i := strings.Index(rest, sep); i >= 0 {
			rest = strings.TrimSpace(rest[:i])
		}
	}
	if rest == "" {
		return []string{}
	}
	return strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' })
}

// CollectFacts scans the package's struct declarations and function
// docs for netmarkvet annotations.
func CollectFacts(pass *Pass) *Facts {
	f := &Facts{
		Guards:     make(map[types.Object]string),
		Hot:        make(map[types.Object]bool),
		Order:      make(map[types.Object]int),
		Cow:        make(map[types.Object]bool),
		Mutators:   make(map[*ast.FuncDecl]bool),
		Snap:       make(map[types.Object]bool),
		SnapEncode: make(map[*ast.FuncDecl]bool),
		SnapDecode: make(map[*ast.FuncDecl]bool),
	}
	for _, file := range pass.Files {
		if file.Doc != nil && persistenceRe.MatchString(file.Doc.Text()) {
			f.Persistence = true
		}
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				text := fieldCommentText(field)
				if text == "" {
					continue
				}
				for _, name := range field.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					if m := guardedRe.FindStringSubmatch(text); m != nil {
						f.Guards[obj] = m[1]
					}
					if strings.Contains(text, "netmarkvet:hot") {
						f.Hot[obj] = true
					}
					if m := lockorderRe.FindStringSubmatch(text); m != nil {
						rank, _ := strconv.Atoi(m[1])
						f.Order[obj] = rank
					}
					if strings.Contains(text, "netmarkvet:cow") {
						f.Cow[obj] = true
					}
					if snapRe.MatchString(text) {
						f.Snap[obj] = true
					}
				}
			}
			return true
		})
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			doc := fd.Doc.Text()
			if strings.Contains(doc, "netmarkvet:mutator") {
				f.Mutators[fd] = true
			}
			if strings.Contains(doc, "netmarkvet:snap-encode") {
				f.SnapEncode[fd] = true
			}
			if strings.Contains(doc, "netmarkvet:snap-decode") {
				f.SnapDecode[fd] = true
			}
		}
	}
	return f
}

// fieldCommentText joins a struct field's doc comment and line comment.
func fieldCommentText(field *ast.Field) string {
	var sb strings.Builder
	if field.Doc != nil {
		sb.WriteString(field.Doc.Text())
	}
	if field.Comment != nil {
		sb.WriteString(field.Comment.Text())
	}
	return sb.String()
}
