package grid

import (
	"fmt"
	"strings"
)

// Render draws the table as ASCII art in the style of the paper's
// Figures 1 and 2: columns are FU instances, rows are control steps
// (downward). Cell glyphs, in priority order:
//
//	label  caller-supplied marker (e.g. the chosen position "r*")
//	X      occupied by a placed operation
//	M      in the move frame (valid position)
//	F      in the forbidden frame
//	R      in the redundant frame
//	P      in the primary frame (but excluded from MF)
//	.      none of the above
//
// fs and labels may be nil.
func Render(t *Table, fs *Frames, labels map[Pos]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (rows: control steps 1..%d, cols: FU 1..%d)\n", t.Type, t.CS, t.Max)
	b.WriteString("      ")
	for i := 1; i <= t.Max; i++ {
		fmt.Fprintf(&b, "%4s", fmt.Sprintf("fu%d", i))
	}
	b.WriteByte('\n')
	for s := 1; s <= t.CS; s++ {
		fmt.Fprintf(&b, "  t%-3d", s)
		for i := 1; i <= t.Max; i++ {
			fmt.Fprintf(&b, "%4s", glyph(t, fs, labels, Pos{s, i}))
		}
		b.WriteByte('\n')
	}
	if fs != nil {
		fmt.Fprintf(&b, "  legend: P=primary R=redundant F=forbidden M=move X=occupied |PF|=%d |RF|=%d |FF|=%d |MF|=%d\n",
			fs.PF().Len(), fs.RF().Len(), fs.FF().Len(), fs.MF().Len())
	}
	return b.String()
}

func glyph(t *Table, fs *Frames, labels map[Pos]string, p Pos) string {
	if l, ok := labels[p]; ok {
		return l
	}
	if t.Occupied(p) {
		return "X"
	}
	if fs != nil {
		switch {
		case fs.MF().Contains(p):
			return "M"
		case fs.FF().Contains(p):
			return "F"
		case fs.RF().Contains(p):
			return "R"
		case fs.PF().Contains(p):
			return "P"
		}
	}
	return "."
}
