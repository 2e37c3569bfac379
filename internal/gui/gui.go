// Package gui is the text-mode substitute for KSpot's Swing GUI. It renders
// the Display Panel — the deployment map with sensors, cluster links and
// the red "KSpot Bullets" that mark the K highest-ranked clusters — and the
// System Panel with live traffic and energy statistics, both as plain text
// suitable for a terminal or the kspotd HTTP dashboard.
package gui

import (
	"fmt"
	"strings"

	"kspot/internal/model"
	"kspot/internal/stats"
	"kspot/internal/topo"
)

// Canvas is a fixed-size character grid.
type Canvas struct {
	w, h  int
	cells [][]rune
}

// NewCanvas returns a blank canvas.
func NewCanvas(w, h int) *Canvas {
	c := &Canvas{w: w, h: h, cells: make([][]rune, h)}
	for y := range c.cells {
		row := make([]rune, w)
		for x := range row {
			row[x] = ' '
		}
		c.cells[y] = row
	}
	return c
}

// Set places a rune, ignoring out-of-bounds coordinates.
func (c *Canvas) Set(x, y int, r rune) {
	if x < 0 || x >= c.w || y < 0 || y >= c.h {
		return
	}
	c.cells[y][x] = r
}

// Text writes a string starting at (x,y), clipped to the canvas.
func (c *Canvas) Text(x, y int, s string) {
	for i, r := range s {
		c.Set(x+i, y, r)
	}
}

// Line draws a straight segment with Bresenham's algorithm using '.' marks,
// the Display Panel's "black line linking nodes of the same cluster".
func (c *Canvas) Line(x0, y0, x1, y1 int) {
	dx, dy := abs(x1-x0), -abs(y1-y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		if c.cells[clamp(y0, 0, c.h-1)][clamp(x0, 0, c.w-1)] == ' ' {
			c.Set(x0, y0, '.')
		}
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// String renders the canvas with a border.
func (c *Canvas) String() string {
	var b strings.Builder
	b.WriteString("+" + strings.Repeat("-", c.w) + "+\n")
	for _, row := range c.cells {
		b.WriteString("|")
		b.WriteString(string(row))
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", c.w) + "+\n")
	return b.String()
}

// DisplayPanel renders the deployment: sensors as 's<id>', the sink as
// 'SINK', cluster links, and a KSpot bullet '(r)' beside each of the K
// highest-ranked clusters. Answers are ranked; answer[0] gets bullet (1).
func DisplayPanel(p *topo.Placement, answers []model.Answer, w, h int) string {
	c := NewCanvas(w, h)
	minX, minY, maxX, maxY := bounds(p)
	scaleX := float64(w-8) / maxf(maxX-minX, 1)
	scaleY := float64(h-3) / maxf(maxY-minY, 1)
	px := func(pt topo.Point) (int, int) {
		return 2 + int((pt.X-minX)*scaleX), 1 + int((pt.Y-minY)*scaleY)
	}

	// Cluster links: chain each cluster's members in id order.
	members := p.GroupMembers()
	groups := p.GroupIDs()
	for _, g := range groups {
		ms := members[g]
		for i := 1; i < len(ms); i++ {
			x0, y0 := px(p.Positions[ms[i-1]])
			x1, y1 := px(p.Positions[ms[i]])
			c.Line(x0, y0, x1, y1)
		}
	}

	// Sensors and sink.
	for _, id := range p.SensorNodes() {
		x, y := px(p.Positions[id])
		c.Text(x, y, fmt.Sprintf("s%d", id))
	}
	sx, sy := px(p.Positions[model.Sink])
	c.Text(sx, sy, "SINK")

	// KSpot bullets beside the highest-ranked cluster's first member.
	rank := map[model.GroupID]int{}
	for i, a := range answers {
		rank[a.Group] = i + 1
	}
	for _, g := range groups {
		r, ok := rank[g]
		if !ok || len(members[g]) == 0 {
			continue
		}
		x, y := px(p.Positions[members[g][0]])
		c.Text(x-4, y, fmt.Sprintf("(%d)", r))
	}

	var b strings.Builder
	b.WriteString(c.String())
	b.WriteString(legend(p, answers))
	return b.String()
}

// legend lists clusters with names, sizes and current rank/score.
func legend(p *topo.Placement, answers []model.Answer) string {
	rank := map[model.GroupID]int{}
	score := map[model.GroupID]model.Value{}
	for i, a := range answers {
		rank[a.Group] = i + 1
		score[a.Group] = a.Score
	}
	sizes := p.GroupSize()
	var b strings.Builder
	b.WriteString("clusters:\n")
	for _, g := range p.GroupIDs() {
		name := p.Names[g]
		if name == "" {
			name = fmt.Sprintf("cluster %d", g)
		}
		if r, ok := rank[g]; ok {
			fmt.Fprintf(&b, "  (%d) %-20s %2d nodes  score %.2f  << KSpot bullet\n", r, name, sizes[g], score[g])
		} else {
			fmt.Fprintf(&b, "      %-20s %2d nodes\n", name, sizes[g])
		}
	}
	return b.String()
}

// RankingStrip renders a one-line live ranking ("1. Room C (75.00)  2. ...")
// for dashboards.
func RankingStrip(p *topo.Placement, answers []model.Answer) string {
	parts := make([]string, 0, len(answers))
	for i, a := range answers {
		name := p.Names[a.Group]
		if name == "" {
			name = fmt.Sprintf("cluster %d", a.Group)
		}
		parts = append(parts, fmt.Sprintf("%d. %s (%.2f)", i+1, name, a.Score))
	}
	if len(parts) == 0 {
		return "no answers yet"
	}
	return strings.Join(parts, "  ")
}

// SystemPanel renders the savings box the paper projects during the demo.
func SystemPanel(run stats.RunStats, baseline *stats.RunStats) string {
	var b strings.Builder
	b.WriteString("+--------------- SYSTEM PANEL ---------------+\n")
	fmt.Fprintf(&b, "| algorithm : %-30s |\n", run.Algorithm)
	fmt.Fprintf(&b, "| epochs    : %-30d |\n", run.Epochs)
	fmt.Fprintf(&b, "| messages  : %-30d |\n", run.Messages)
	fmt.Fprintf(&b, "| frames    : %-30d |\n", run.Frames)
	fmt.Fprintf(&b, "| tx bytes  : %-30d |\n", run.TxBytes)
	fmt.Fprintf(&b, "| energy    : %-27.2f mJ |\n", run.EnergyUJ/1000)
	if baseline != nil {
		s := stats.Compare(run, *baseline)
		fmt.Fprintf(&b, "| vs %-39s |\n", baseline.Algorithm+":")
		fmt.Fprintf(&b, "|   message savings : %-21.1f%% |\n", s.Messages)
		fmt.Fprintf(&b, "|   frame savings   : %-21.1f%% |\n", s.Frames)
		fmt.Fprintf(&b, "|   byte savings    : %-21.1f%% |\n", s.Bytes)
		fmt.Fprintf(&b, "|   energy savings  : %-21.1f%% |\n", s.Energy)
	}
	b.WriteString("+" + strings.Repeat("-", 44) + "+\n")
	return b.String()
}

func bounds(p *topo.Placement) (minX, minY, maxX, maxY float64) {
	first := true
	for _, pt := range p.Positions {
		if first {
			minX, maxX, minY, maxY = pt.X, pt.X, pt.Y, pt.Y
			first = false
			continue
		}
		if pt.X < minX {
			minX = pt.X
		}
		if pt.X > maxX {
			maxX = pt.X
		}
		if pt.Y < minY {
			minY = pt.Y
		}
		if pt.Y > maxY {
			maxY = pt.Y
		}
	}
	return
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
