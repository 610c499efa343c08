package sgml

import (
	"strconv"
	"strings"
)

// namedEntities covers the XML five plus the HTML entities that actually
// occur in enterprise documents; unknown entities pass through verbatim,
// which is the permissive behaviour the NETMARK parser needs (it must
// never reject a document).
var namedEntities = map[string]string{
	"amp":    "&",
	"lt":     "<",
	"gt":     ">",
	"quot":   `"`,
	"apos":   "'",
	"nbsp":   " ",
	"copy":   "©",
	"reg":    "®",
	"trade":  "™",
	"mdash":  "—",
	"ndash":  "–",
	"ldquo":  "“",
	"rdquo":  "”",
	"lsquo":  "‘",
	"rsquo":  "’",
	"hellip": "…",
	"deg":    "°",
	"plusmn": "±",
	"times":  "×",
	"divide": "÷",
	"frac12": "½",
	"sect":   "§",
	"para":   "¶",
	"middot": "·",
	"bull":   "•",
	"dagger": "†",
	"larr":   "←",
	"rarr":   "→",
	"euro":   "€",
	"pound":  "£",
	"cent":   "¢",
	"yen":    "¥",
}

// decodeEntities replaces character references in s.  Malformed
// references are left verbatim.
func decodeEntities(s string) string {
	amp := strings.IndexByte(s, '&')
	if amp < 0 {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for {
		sb.WriteString(s[:amp])
		s = s[amp:]
		semi := strings.IndexByte(s, ';')
		if semi < 0 || semi > 32 {
			// No terminator nearby: literal ampersand.
			sb.WriteByte('&')
			s = s[1:]
		} else {
			ent := s[1:semi]
			if rep, ok := decodeOneEntity(ent); ok {
				sb.WriteString(rep)
				s = s[semi+1:]
			} else {
				sb.WriteByte('&')
				s = s[1:]
			}
		}
		amp = strings.IndexByte(s, '&')
		if amp < 0 {
			sb.WriteString(s)
			return sb.String()
		}
	}
}

func decodeOneEntity(ent string) (string, bool) {
	if ent == "" {
		return "", false
	}
	if ent[0] == '#' {
		body := ent[1:]
		base := 10
		if len(body) > 0 && (body[0] == 'x' || body[0] == 'X') {
			base = 16
			body = body[1:]
		}
		n, err := strconv.ParseUint(body, base, 32)
		if err != nil || n == 0 || n > 0x10FFFF {
			return "", false
		}
		return string(rune(n)), true
	}
	if rep, ok := namedEntities[ent]; ok {
		return rep, true
	}
	return "", false
}
