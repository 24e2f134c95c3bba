// Command fixture plants one case the guard must report and one it must
// not, for each of its rules. TestGuardFixture lists the reports it wants.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// A method called only through an interface, on a value that reached it by
// a dynamic type assertion, is used; one whose type satisfies no used
// interface is not.

type shape interface{ Area() int }

type square struct{ side int }

func (s square) Area() int { return s.side * s.side }

type circle struct{ r int }

func (c circle) Perimeter() int { return 6 * c.r } // want: no caller

// A type handed to flag.Var has the flag.Value methods used, and only those.

type names []string

func (n *names) String() string     { return fmt.Sprint(*n) }
func (n *names) Set(v string) error { *n = append(*n, v); return nil }
func (n *names) Reset()             { *n = nil } // want: no caller

// sort.Sort uses the sort.Interface methods of what it is handed.

type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// A value handed to a printf wrapper's ...any parameter has its String
// method used.

type level int

func (l level) String() string { return fmt.Sprintf("L%d", int(l)) }

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// A method that shares its name with a called method is still dead.

type counter struct{ n int }

func (c *counter) Add() { c.n++ }

type gauge struct{ n int }

func (g *gauge) Add() { g.n++ } // want: no caller

// A function whose only caller is itself is dead.
func countdown(n int) int { // want: no caller
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// A struct used as a map key has every field read; one stored as a map
// value does not.

type cell struct{ row, col int }

type mark struct{ glyph rune } // want: glyph never read

// An unkeyed literal writes every field without reading one.

type pair struct{ x, y int } // want: y never read

// A field that is only ever written is dead; == and encoding/json read
// every field, and a tagged field is skipped.

type entry struct {
	msg  string
	note string // want: note never read
}

type point struct{ x, y int }

type report struct{ Count int }

type header struct {
	Seq int `json:"seq"` // written only here: an encoder elsewhere reads it
}

// A *Config or *Options field that no code sets is a constant. An unkeyed
// literal sets every field; filling in a default when it is zero does not.

type Options struct {
	Depth   int
	Width   int // want: never set
	Retries int // want: never set, only defaulted
	Limit   int
}

func (o Options) withDefaults() Options {
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.Limit == 0 {
		o.Limit = 8
	}
	return o
}

type gridConfig struct{ rows, cols int }

func main() {
	var a any = square{2}
	fmt.Println(a.(shape).Area(), circle{1}.r)

	var ns names
	flag.Var(&ns, "name", "a name")
	words := byLen{"ccc", "a", "bb"}
	sort.Sort(words)
	logf("%s", level(2))

	c := &counter{}
	c.Add()
	g := &gauge{}
	fmt.Println(c.n, g.n)

	board := map[cell]mark{{1, 2}: {'x'}}
	fmt.Println(len(board))

	p := pair{1, 2}
	fmt.Println(p.x)

	e := entry{msg: "hi"}
	e.note = "unread"
	fmt.Println(e.msg)

	fmt.Println(point{1, 2} == point{2, 1})
	_ = json.NewEncoder(os.Stdout).Encode(report{Count: 1})
	fmt.Println(len([]header{{Seq: 1}}))

	o := Options{Depth: 2, Limit: 4}.withDefaults()
	fmt.Println(o.Depth, o.Width, o.Retries, o.Limit)
	gc := gridConfig{3, 4}
	fmt.Println(gc.rows * gc.cols)
}
