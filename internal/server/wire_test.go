package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/internal/storage"
)

// codecGolden pins each kind's cell as it appears on the wire, edge cases
// included: the HTML-safe, control-byte, line-separator and invalid-UTF-8
// escapes encoding/json applies, an empty string (omitempty drops "v"),
// and the float renderings of -0, 1e21, NaN and the infinities.
var codecGolden = []struct {
	v    storage.Value
	cell string
}{
	{storage.Null, `{"t":"null"}`},
	{storage.NewInt(0), `{"t":"int","v":"0"}`},
	{storage.NewInt(-42), `{"t":"int","v":"-42"}`},
	{storage.NewInt(math.MaxInt64), `{"t":"int","v":"9223372036854775807"}`},
	{storage.NewInt(math.MinInt64), `{"t":"int","v":"-9223372036854775808"}`},
	{storage.NewFloat(1.5), `{"t":"float","v":"1.5"}`},
	{storage.NewFloat(math.Copysign(0, -1)), `{"t":"float","v":"-0"}`},
	{storage.NewFloat(1e21), `{"t":"float","v":"1e+21"}`},
	{storage.NewFloat(123456.75), `{"t":"float","v":"123456.75"}`},
	{storage.NewFloat(-2.5e-300), `{"t":"float","v":"-2.5e-300"}`},
	{storage.NewFloat(math.NaN()), `{"t":"float","v":"NaN"}`},
	{storage.NewFloat(math.Inf(1)), `{"t":"float","v":"+Inf"}`},
	{storage.NewFloat(math.Inf(-1)), `{"t":"float","v":"-Inf"}`},
	{storage.NewString(""), `{"t":"str"}`},
	{storage.NewString("Gate 3, level -1 (north)"), `{"t":"str","v":"Gate 3, level -1 (north)"}`},
	{storage.NewString("<b>&</b>"), `{"t":"str","v":"\u003cb\u003e\u0026\u003c/b\u003e"}`},
	{storage.NewString(`say "hi"`), `{"t":"str","v":"say \"hi\""}`},
	{storage.NewString(`C:\tmp`), `{"t":"str","v":"C:\\tmp"}`},
	{storage.NewString("a\tb\nc\x00d\x7f"), `{"t":"str","v":"a\tb\nc\u0000d` + "\x7f" + `"}`},
	{storage.NewString("x\u2028y\u2029"), `{"t":"str","v":"x\u2028y\u2029"}`},
	{storage.NewString("café"), `{"t":"str","v":"café"}`},
	{storage.NewString("bad\xff"), `{"t":"str","v":"bad\ufffd"}`},
	{storage.NewBool(true), `{"t":"bool","v":"t"}`},
	{storage.NewBool(false), `{"t":"bool","v":"f"}`},
	{storage.NewTime(0), `{"t":"time","v":"0"}`},
	{storage.NewTime(86399), `{"t":"time","v":"86399"}`},
	{storage.NewDate(-730), `{"t":"date","v":"-730"}`},
	{storage.NewDate(19000), `{"t":"date","v":"19000"}`},
}

// declinedLines are lines ParseRowLine must leave to the JSON path: every
// other line kind, and row lines in any but the canonical form.
var declinedLines = []string{
	``,
	`{}`,
	`{"columns":["id","owner"]}`,
	`{"done":true,"rows":1,"req_id":"00"}`,
	`{"error":"boom"}`,
	`{"row":[]}`,
	`{"row":[{"t":"int","v":"1"}]}` + "\n",
	`{"row":[{"t":"int","v":"1"}]} `,
	`{"row": [{"t":"int","v":"1"}]}`,
	`{"row":[{"t":"int","v":"1"} ]}`,
	`{"row":[{"v":"1","t":"int"}]}`,
	`{"ROW":[{"t":"int","v":"1"}]}`,
	`{"row":[{"T":"int","v":"1"}]}`,
	`{"row":[{"t":"int","v":"1"}],"done":true}`,
	`{"row":[{"t":"int","v":"1","x":0}]}`,
	`{"row":[{"t":"int","v":"1"},]}`,
	`{"row":[{"t":"int","v":"1"}`,
	`{"row":[{"t":"str","v":"\u0041"}]}`,
	`{"row":[{"t":"str","v":"caf` + "\xc3\xa9" + `"}]}`,
	`{"row":[{"t":"str","v":"` + "\xff" + `"}]}`,
	`{"row":[{"t":"str","v":""}]}`,
	`{"row":[{"t":"blob","v":"1"}]}`,
	`{"row":[{"t":"int"}]}`,
	`{"row":[{"t":"null","v":"x"}]}`,
	`{"row":[{"t":"int","v":"007"}]}`,
	`{"row":[{"t":"int","v":"-0"}]}`,
	`{"row":[{"t":"int","v":"+1"}]}`,
	`{"row":[{"t":"int","v":"1e3"}]}`,
	`{"row":[{"t":"int","v":"9223372036854775808"}]}`,
	`{"row":[{"t":"date","v":"-9223372036854775809"}]}`,
	`{"row":[{"t":"time","v":"12345678901234567890"}]}`,
	`{"row":[{"t":"float","v":"1e21"}]}`,
	`{"row":[{"t":"float","v":"1.50"}]}`,
	`{"row":[{"t":"float","v":"nan"}]}`,
	`{"row":[{"t":"float","v":"1e400"}]}`,
	`{"row":[{"t":"bool","v":"true"}]}`,
}

// TestRowLineCodec holds the row-line codec to encoding/json. Encoding is
// byte-identical to json.Encoder over the same StreamLine, for every
// golden cell alone and for all of them in one row, and reproduces the
// example docs/server.md shows. Parsing returns exactly the values and
// kinds of the JSON path, accepts every row without escapes, and declines
// everything in declinedLines.
func TestRowLineCodec(t *testing.T) {
	var all storage.Row
	for _, g := range codecGolden {
		row := storage.Row{g.v}
		want := `{"row":[` + g.cell + "]}\n"
		if got := string(server.AppendRowLine(nil, row)); got != want {
			t.Errorf("AppendRowLine(%v):\n got %s want %s", g.v, got, want)
		}
		checkRowLine(t, row)
		all = append(all, g.v)
	}
	checkRowLine(t, all)
	checkRowLine(t, storage.Row{})

	for _, line := range declinedLines {
		if row, ok := server.ParseRowLine([]byte(line), nil); ok {
			t.Errorf("ParseRowLine(%q) = %v, want declined", line, row)
		}
	}

	doc := docRowLine(t)
	row, ok := viaJSON(doc)
	if !ok {
		t.Fatalf("docs/server.md row example %s does not decode", doc)
	}
	if got := server.AppendRowLine(nil, row); string(got) != string(doc)+"\n" {
		t.Errorf("docs/server.md shows %s, the server writes %s", doc, got)
	}
}

// FuzzRowLine checks both directions on arbitrary input: any bytes as a
// line are declined by ParseRowLine or decode as on the JSON path, and a
// row built from the fuzzed kinds and values encodes byte for byte as
// encoding/json does and parses back exactly.
func FuzzRowLine(f *testing.F) {
	for _, g := range codecGolden {
		f.Add(server.AppendRowLine(nil, storage.Row{g.v}), []byte{byte(g.v.K)}, g.v.S, g.v.I, g.v.F)
	}
	for _, line := range declinedLines {
		f.Add([]byte(line), []byte{0, 1, 2, 3, 4, 5, 6}, "n", int64(-1), 0.5)
	}
	f.Fuzz(func(t *testing.T, line, kinds []byte, s string, i int64, x float64) {
		checkAgrees(t, line)
		checkRowLine(t, fuzzRow(kinds, s, i, x))
	})
}

// BenchmarkRowLine measures the codec on a mall-shaped row: encode into a
// reused buffer, and parse into a reused row.
func BenchmarkRowLine(b *testing.B) {
	row := storage.Row{
		storage.NewInt(48213), storage.NewInt(1207), storage.NewTime(41400),
		storage.NewDate(19001), storage.NewString("android"),
	}
	line := server.AppendRowLine(nil, row)
	line = line[:len(line)-1]
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			buf = server.AppendRowLine(buf[:0], row)
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		var dst storage.Row
		for b.Loop() {
			dst, _ = server.ParseRowLine(line, dst)
		}
	})
}

// checkRowLine encodes row both ways, requires identical bytes, and
// requires the parse to be exact — and not declined when no string needs
// an escape.
func checkRowLine(t *testing.T, row storage.Row) {
	t.Helper()
	wv := make([]server.WireValue, 0, len(row))
	plain := len(row) > 0
	for _, v := range row {
		wv = append(wv, server.EncodeValue(v))
		if v.K == storage.KindString && !isPlain(v.S) {
			plain = false
		}
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(server.StreamLine{Row: wv}); err != nil {
		t.Fatal(err)
	}
	got := server.AppendRowLine(nil, row)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("AppendRowLine(%v):\n got %s want %s", row, got, want.Bytes())
	}
	line := got[:len(got)-1]
	back, ok := server.ParseRowLine(line, nil)
	if plain && !ok {
		t.Fatalf("ParseRowLine declined its own canonical line %s", line)
	}
	if ok && !sameRow(back, row) {
		t.Fatalf("ParseRowLine(%s) = %v, encoded %v", line, back, row)
	}
	checkAgrees(t, line)
}

// checkAgrees requires ParseRowLine to decline line or to return exactly
// what the JSON path makes of it.
func checkAgrees(t *testing.T, line []byte) {
	t.Helper()
	got, ok := server.ParseRowLine(line, nil)
	if !ok {
		return
	}
	want, ok := viaJSON(line)
	if !ok {
		t.Fatalf("ParseRowLine accepted %q, which the JSON path rejects", line)
	}
	if !sameRow(got, want) {
		t.Fatalf("ParseRowLine(%q) = %v, the JSON path %v", line, got, want)
	}
}

// viaJSON decodes line as the client does without ParseRowLine:
// json.Unmarshal into a StreamLine, then DecodeValue per cell. ok is false
// when that yields no row.
func viaJSON(line []byte) (storage.Row, bool) {
	var sl server.StreamLine
	if err := json.Unmarshal(line, &sl); err != nil || sl.Error != "" || sl.Done || sl.Row == nil {
		return nil, false
	}
	row := make(storage.Row, len(sl.Row))
	for i, w := range sl.Row {
		v, err := server.DecodeValue(w)
		if err != nil {
			return nil, false
		}
		row[i] = v
	}
	return row, true
}

// sameRow compares kinds and payloads exactly; any NaN equals any NaN,
// and -0 differs from 0.
func sameRow(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.K != y.K || x.I != y.I || x.S != y.S {
			return false
		}
		if math.Float64bits(x.F) != math.Float64bits(y.F) && !(math.IsNaN(x.F) && math.IsNaN(y.F)) {
			return false
		}
	}
	return true
}

func isPlain(s string) bool {
	for _, c := range []byte(s) {
		if c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// fuzzRow builds a row of up to 16 cells, one per kinds byte.
func fuzzRow(kinds []byte, s string, i int64, x float64) storage.Row {
	row := storage.Row{}
	for j, k := range kinds[:min(len(kinds), 16)] {
		var v storage.Value
		switch k % 7 {
		case 0:
			v = storage.Null
		case 1:
			v = storage.NewInt(i + int64(j))
		case 2:
			v = storage.NewFloat(x * float64(j+1))
		case 3:
			v = storage.NewString(s[min(j, len(s)):])
		case 4:
			v = storage.NewBool(k&8 != 0)
		case 5:
			v = storage.NewTime(i - int64(j))
		case 6:
			v = storage.NewDate(i ^ int64(j))
		}
		row = append(row, v)
	}
	return row
}

// docRowLine returns the row-line example in docs/server.md.
func docRowLine(t *testing.T) []byte {
	t.Helper()
	f, err := os.Open("../../docs/server.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if bytes.HasPrefix(sc.Bytes(), []byte(`{"row":`)) {
			return bytes.Clone(sc.Bytes())
		}
	}
	t.Fatal("docs/server.md shows no {\"row\":…} line")
	return nil
}
