package experiments

import (
	"fmt"
	"strings"
)

// claims collects the predicates one experiment row breaks. Each row type
// that gates a paper claim has a Check method built on it, next to the
// row's definition; cmd/benchharness calls Check on every row it prints,
// and a broken claim fails the experiment.
type claims struct {
	row    string
	broken []string
}

// require records the predicate named by format unless it holds. The
// message states the predicate first, then what the row measured.
func (c *claims) require(holds bool, format string, args ...any) {
	if !holds {
		c.broken = append(c.broken, fmt.Sprintf(format, args...))
	}
}

// err names the row and every predicate it broke, or is nil.
func (c *claims) err() error {
	if len(c.broken) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %s", c.row, strings.Join(c.broken, "; "))
}
