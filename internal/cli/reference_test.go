package cli

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// referenceReadRows is ReadRows as it was first written, over strings:
// each line is converted with sc.Text, trimmed with strings.TrimSpace,
// split with strings.Split, and each field is trimmed and parsed with
// strconv.Atoi. FuzzReadRows holds ReadRows to it: the same rows in the
// same order, or the same error string.
func referenceReadRows(schema *dataset.Schema, r io.Reader, sink func(vals ...int) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	vals := make([]int, schema.NumAttrs())
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != schema.NumAttrs() {
			return fmt.Errorf("cli: line %d: %d fields, want %d", line, len(fields), schema.NumAttrs())
		}
		for i, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("cli: line %d field %d: %w", line, i+1, err)
			}
			vals[i] = v
		}
		if err := sink(vals...); err != nil {
			return fmt.Errorf("cli: line %d: %w", line, err)
		}
	}
	return sc.Err()
}
