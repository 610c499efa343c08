package sgml

import "strings"

// NodeClass is the paper's five-way node data type, "specified in the
// HTML or XML configuration files passed by the daemon" and stored in the
// NODETYPE column (§2.1.1), which the XML store keeps in its TAG table:
//
//	(1) ELEMENT, (2) TEXT, (3) CONTEXT, (4) INTENSE, (5) SIMULATION.
//
// CONTEXT marks section headings ("similar to the <H1> and <H2> header
// tags commonly found within HTML pages"), TEXT marks character data,
// INTENSE marks emphasised inline runs, SIMULATION marks layout
// constructs (tables, lists) whose visual structure is simulated rather
// than semantic, and ELEMENT is everything else.
type NodeClass uint8

// The five NETMARK node data types, numbered as in the paper.
const (
	ClassElement    NodeClass = 1
	ClassText       NodeClass = 2
	ClassContext    NodeClass = 3
	ClassIntense    NodeClass = 4
	ClassSimulation NodeClass = 5
)

func (c NodeClass) String() string {
	switch c {
	case ClassElement:
		return "ELEMENT"
	case ClassText:
		return "TEXT"
	case ClassContext:
		return "CONTEXT"
	case ClassIntense:
		return "INTENSE"
	case ClassSimulation:
		return "SIMULATION"
	}
	return "UNKNOWN"
}

// Config is the node-type configuration: which element names map to
// which class.  It stands in for NETMARK's per-format configuration
// files.
type Config struct {
	// Name of the configuration, e.g. "html" or "xml".
	Name string
	// Context lists element names classified CONTEXT.
	Context map[string]bool
	// Intense lists element names classified INTENSE.
	Intense map[string]bool
	// Simulation lists element names classified SIMULATION.
	Simulation map[string]bool
	// CaseInsensitive lowercases names before lookup (HTML).
	CaseInsensitive bool
}

// Classify returns the NodeClass for a parse node under this config.
func (cfg *Config) Classify(n *Node) NodeClass {
	switch n.Kind {
	case TextNode:
		return ClassText
	case ElementNode:
		name := n.Name
		if cfg.CaseInsensitive {
			name = strings.ToLower(name)
		}
		switch {
		case cfg.Context[name]:
			return ClassContext
		case cfg.Intense[name]:
			return ClassIntense
		case cfg.Simulation[name]:
			return ClassSimulation
		default:
			return ClassElement
		}
	default:
		return ClassElement
	}
}

// HTMLConfig returns the configuration for web documents: h1-h6 and
// title/caption headings are CONTEXT, inline emphasis is INTENSE, layout
// containers are SIMULATION.
func HTMLConfig() *Config {
	return &Config{
		Name: "html",
		Context: set("h1", "h2", "h3", "h4", "h5", "h6",
			"title", "caption", "legend", "summary"),
		Intense: set("b", "strong", "i", "em", "u", "mark",
			"cite", "dfn", "var", "kbd", "code"),
		Simulation: set("table", "thead", "tbody", "tfoot", "tr", "td",
			"th", "ul", "ol", "li", "dl", "dt", "dd", "pre", "figure"),
		CaseInsensitive: true,
	}
}

// XMLConfig returns the configuration for upmarked and generic XML
// documents: the normalized <context> element plus common heading-like
// element names are CONTEXT.
func XMLConfig() *Config {
	return &Config{
		Name: "xml",
		Context: set("context", "title", "heading", "header",
			"section-title", "caption", "name"),
		Intense: set("intense", "emphasis", "em", "b", "strong",
			"keyword", "highlight"),
		Simulation: set("table", "row", "cell", "list", "item",
			"figure", "grid"),
	}
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}
