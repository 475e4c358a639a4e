package overd

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// paperTable is one entry of the paper-table registry.
type paperTable struct {
	id string
	// write runs the table and writes it to w: as JSON lines when asJSON,
	// else as text followed by its speedup figures when figures is set.
	write func(w io.Writer, opt Options, asJSON, figures bool) error
}

// newTable binds a table's run function, JSON emitter and text printer
// into one registry entry.
func newTable[T any](id string, run func(Options) (T, error),
	emitJSON func(io.Writer, string, T) error, text func(io.Writer, T, bool)) paperTable {
	return paperTable{id, func(w io.Writer, opt Options, asJSON, figures bool) error {
		res, err := run(opt)
		if err != nil {
			return err
		}
		if asJSON {
			return emitJSON(w, id, res)
		}
		text(w, res, figures)
		_, err = fmt.Fprintln(w)
		return err
	}}
}

// rowsJSON is EmitRowsJSON typed for newTable.
func rowsJSON[T any](w io.Writer, id string, rows T) error { return EmitRowsJSON(w, id, rows) }

// rowsText adapts a row-table printer, which has no figures, to newTable.
func rowsText[T any](print func(io.Writer, T)) func(io.Writer, T, bool) {
	return func(w io.Writer, rows T, _ bool) { print(w, rows) }
}

// perfText prints a PerfTable and, with figures, its speedup figure for
// each of the given machines.
func perfText(machines ...string) func(io.Writer, *PerfTable, bool) {
	return func(w io.Writer, t *PerfTable, figures bool) {
		FprintPerfTable(w, t)
		if figures {
			for _, m := range machines {
				FprintSpeedupFigure(w, t, m)
			}
		}
	}
}

// paperTables is the one ordered list of the paper's tables plus "5f", the
// straggler-faulted Table 5 rerun. It fixes the ids -only accepts and the
// order every output, text or JSON, emits them in.
var paperTables = []paperTable{
	newTable("1", RunTable1, EmitPerfTableJSON, perfText("SP2", "SP")), // Fig. 5 left, right
	newTable("2", RunTable2, rowsJSON, rowsText(FprintTable2)),
	newTable("3", RunTable3, EmitPerfTableJSON, perfText("SP2")), // Fig. 7
	newTable("4", RunTable4, EmitPerfTableJSON, perfText("SP2")), // Fig. 10
	newTable("5", RunTable5, rowsJSON, rowsText(FprintTable5)),
	newTable("5f", RunTable5Faulted, rowsJSON, rowsText(FprintTable5Faulted)),
	newTable("6", RunTable6, rowsJSON, rowsText(FprintTable6)),
}

// TableIDs returns the table identifiers in emission order.
func TableIDs() []string {
	ids := make([]string, len(paperTables))
	for i, t := range paperTables {
		ids[i] = t.id
	}
	return ids
}

// ParseTableSelection parses a comma-separated table list ("1,2,5f") into a
// selection set, rejecting unknown ids with an error naming the bad id and
// the valid choices.
func ParseTableSelection(only string) (map[string]bool, error) {
	ids := TableIDs()
	want := map[string]bool{}
	for _, t := range strings.Split(only, ",") {
		id := strings.TrimSpace(t)
		if id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("unknown table %q (valid: %s)", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("empty table selection %q", only)
	}
	return want, nil
}

// EmitTablesJSON runs the selected tables in registry order and writes
// their rows as JSON lines. This is the single code path behind
// `tables -json` and the bit-identity golden test: any change to the
// simulation that alters a virtual clock, a table row, or a figure point
// changes these bytes.
func EmitTablesJSON(w io.Writer, opt Options, want map[string]bool) error {
	return writeTables(w, opt, want, true, false)
}

// FprintTables runs the selected tables in registry order and prints them
// as text, each followed by its speedup figures when figures is set.
func FprintTables(w io.Writer, opt Options, want map[string]bool, figures bool) error {
	return writeTables(w, opt, want, false, figures)
}

func writeTables(w io.Writer, opt Options, want map[string]bool, asJSON, figures bool) error {
	for _, t := range paperTables {
		if !want[t.id] {
			continue
		}
		if err := t.write(w, opt, asJSON, figures); err != nil {
			return err
		}
	}
	return nil
}
