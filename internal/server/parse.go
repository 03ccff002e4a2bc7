// Request parsing: /classify and /ingest decode a CSV or JSON row body
// straight into a pooled flat row-major buffer. CSV bodies use
// dataset.ParseCSV, the grammar the CLI's -train and -query files use,
// across the live model's worker budget; a small clean body allocates
// nothing. JSON bodies go through encoding/json.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"tkdc/internal/dataset"
)

// Pooled scratch: request-body bytes and the flat coordinate buffer.
// Buffers past the retention caps are dropped rather than pooled so one
// huge request can't pin memory for the rest of the process.
const (
	maxPooledBodyBytes = 1 << 20
	maxPooledFlatLen   = 1 << 17
)

var (
	bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	flatPool = sync.Pool{New: func() any { return new([]float64) }}
)

func getBodyBuf() *bytes.Buffer {
	b := bodyPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBodyBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBodyBytes {
		bodyPool.Put(b)
	}
}

func getFlatBuf() []float64 {
	return (*flatPool.Get().(*[]float64))[:0]
}

func putFlatBuf(f []float64) {
	if cap(f) <= maxPooledFlatLen {
		f = f[:0]
		flatPool.Put(&f)
	}
}

// classifyRequest is the JSON object body: {"points": [[x, y], ...]}.
// Coordinates decode through pointers so that a JSON null is rejected
// rather than read as 0.
type classifyRequest struct {
	Points [][]*float64 `json:"points"`
}

// parseRowsFlat decodes a row body into flat row-major form, appending
// to dst (typically a pooled buffer) and returning the grown buffer
// plus the row count and width. The body is JSON when the content type
// says so or it starts with '{' or '[' — a {"points": [[...]]} object
// or a bare [[...]] array — and CSV otherwise. A large CSV body parses
// in blocks across up to workers goroutines (dataset.ParseCSV). On
// error dst comes back at its input length.
func parseRowsFlat(contentType string, body []byte, dst []float64, workers int) (flat []float64, n, dim int, err error) {
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		return dst, 0, 0, errors.New("empty request body")
	}
	if strings.Contains(contentType, "json") || trimmed[0] == '{' || trimmed[0] == '[' {
		return parseJSONRows(trimmed, dst)
	}
	flat, n, dim, err = dataset.ParseCSV(body, dst, workers)
	if err != nil {
		return flat, 0, 0, fmt.Errorf("parse CSV body: %w", err)
	}
	return flat, n, dim, nil
}

// parseJSONRows decodes either JSON body shape and flattens it. A flat
// buffer cannot hold ragged rows, so they are rejected here with the
// row index, as are null coordinates.
func parseJSONRows(trimmed []byte, dst []float64) (flat []float64, n, dim int, err error) {
	var rows [][]*float64
	if trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &rows); err != nil {
			return dst, 0, 0, fmt.Errorf("parse JSON rows: %w", err)
		}
	} else {
		var req classifyRequest
		if err := json.Unmarshal(trimmed, &req); err != nil {
			return dst, 0, 0, fmt.Errorf("parse JSON body: %w", err)
		}
		rows = req.Points
	}
	if len(rows) == 0 {
		return dst, 0, 0, nil
	}
	mark := len(dst)
	dim = len(rows[0])
	for i, row := range rows {
		if len(row) != dim {
			return dst[:mark], 0, 0, fmt.Errorf("row %d has %d values, want %d", i, len(row), dim)
		}
		for j, v := range row {
			if v == nil {
				return dst[:mark], 0, 0, fmt.Errorf("row %d coordinate %d is null", i, j)
			}
			dst = append(dst, *v)
		}
	}
	return dst, len(rows), dim, nil
}
