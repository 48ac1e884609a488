package detect

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"skynet/internal/tensor"
)

func encodedRequest(t testing.TB, img *tensor.Tensor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func randomImage(seed int64, c, h, w int) *tensor.Tensor {
	img := tensor.New(c, h, w)
	img.RandNormal(rand.New(rand.NewSource(seed)), 0, 1)
	return img
}

func sameTensorBits(t *testing.T, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("value %d is %x, want %x", i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// TestRequestRoundTrip: what EncodeRequest writes, DecodeRequest reads back
// bit for bit, whatever order the members come in and whatever surrounds
// them.
func TestRequestRoundTrip(t *testing.T) {
	img := randomImage(1, 3, 5, 7)
	img.Data[0], img.Data[1], img.Data[2] = 0, float32(math.Copysign(0, -1)), math.MaxFloat32
	img.Data[3], img.Data[4] = math.SmallestNonzeroFloat32, -1e-10
	body := encodedRequest(t, img)
	got, err := DecodeRequest(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sameTensorBits(t, got, img)

	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	shape, _ := json.Marshal(req.Shape)
	data, _ := json.Marshal(req.Data)
	reordered := " \n{ \"note\" : {\"a\":[1,\"]\",{}]} ,\t\"data\" :" + string(data) + ", \"sh\\u0061pe\":" + string(shape) + "\r\n} \n"
	got, err = ParseRequest([]byte(reordered), nil, nil)
	if err != nil {
		t.Fatalf("data before shape, unknown member, escaped key, whitespace: %v", err)
	}
	sameTensorBits(t, got, img)
}

// TestParseRequestRejects: the grammar the scanner enforces itself, the
// shape bounds, and the four documented strictnesses.
func TestParseRequestRejects(t *testing.T) {
	for name, body := range map[string]string{
		"empty":                ``,
		"not an object":        `[1,2,3]`,
		"null":                 `null`,
		"truncated":            `{"shape":[3,1,1],"data":[1,2`,
		"no shape":             `{"data":[1,2,3]}`,
		"no data":              `{"shape":[3,1,1]}`,
		"count short":          `{"shape":[3,2,2],"data":[1,2,3]}`,
		"count long":           `{"shape":[3,1,1],"data":[1,2,3,4]}`,
		"rank 1":               `{"shape":[4],"data":[1,2,3,4]}`,
		"rank 4":               `{"shape":[1,1,1,1],"data":[1]}`,
		"negative dim":         `{"shape":[-3,2,2],"data":[]}`,
		"zero dims":            `{"shape":[0,0,0],"data":[]}`,
		"float dim":            `{"shape":[3.0,1,1],"data":[1,2,3]}`,
		"exponent dim":         `{"shape":[3e0,1,1],"data":[1,2,3]}`,
		"product over limit":   `{"shape":[1073741824,1073741824,4],"data":[]}`,
		"product wraps to 0":   `{"shape":[3,4294967296,4294967296],"data":[]}`,
		"product past limit":   `{"shape":[4096,2048,1],"data":[]}`,
		"dim past int64":       `{"shape":[3,99999999999999999999999,1],"data":[]}`,
		"shape is a string":    `{"shape":"wide","data":{}}`,
		"data is an object":    `{"shape":[1,1,1],"data":{}}`,
		"string pixel":         `{"shape":[1,1,1],"data":["1"]}`,
		"nested pixel":         `{"shape":[1,1,1],"data":[[1]]}`,
		"Inf":                  `{"shape":[1,1,1],"data":[Inf]}`,
		"NaN":                  `{"shape":[1,1,1],"data":[NaN]}`,
		"hex float":            `{"shape":[1,1,1],"data":[0x1p-2]}`,
		"plus sign":            `{"shape":[1,1,1],"data":[+1]}`,
		"bare fraction":        `{"shape":[1,1,1],"data":[.5]}`,
		"trailing point":       `{"shape":[1,1,1],"data":[1.]}`,
		"leading zero":         `{"shape":[1,1,1],"data":[01]}`,
		"bare minus":           `{"shape":[1,1,1],"data":[-]}`,
		"empty exponent":       `{"shape":[1,1,1],"data":[1e]}`,
		"underscore":           `{"shape":[1,1,1],"data":[1_0]}`,
		"out of float32 range": `{"shape":[1,1,1],"data":[1e39]}`,
		"trailing comma":       `{"shape":[1,1,1],"data":[1,]}`,
		"leading comma":        `{"shape":[1,1,1],"data":[,1]}`,
		"member comma":         `{"shape":[1,1,1],"data":[1],}`,
		"missing colon":        `{"shape" [1,1,1],"data":[1]}`,
		"bare key":             `{shape:[1,1,1],"data":[1]}`,
		"bad unknown member":   `{"shape":[1,1,1],"data":[1],"x":[}`,
		"unknown not JSON":     `{"shape":[1,1,1],"data":[1],"x":tru}`,
		"control in key":       "{\"sha\tpe\":[1,1,1],\"data\":[1]}",
		"bad key escape":       `{"sh\qape":[1,1,1],"data":[1]}`,
		// Stricter than encoding/json, by design (codec.go's header):
		"trailing bytes":  `{"shape":[1,1,1],"data":[1]} trailing garbage`,
		"second value":    `{"shape":[1,1,1],"data":[1]}{}`,
		"upper-case key":  `{"shape":[1,1,1],"DATA":[1]}`,
		"folded key":      `{"ſhape":[1,1,1],"data":[1]}`,
		"escaped folding": `{"\u0053hape":[1,1,1],"data":[1]}`,
		"duplicate data":  `{"shape":[1,1,1],"data":[1],"data":[2]}`,
		"duplicate shape": `{"shape":[1,1,1],"shape":[1,1,1],"data":[1]}`,
		"dup data first":  `{"data":[1],"data":[2],"shape":[1,1,1]}`,
		"null pixel":      `{"shape":[1,1,1],"data":[null]}`,
		"null data":       `{"shape":[1,1,1],"data":null}`,
		"null shape":      `{"shape":null,"data":[1]}`,
	} {
		img, err := ParseRequest([]byte(body), nil, nil)
		if err == nil {
			t.Errorf("%s: %s accepted as %v", name, body, img.Shape())
		}
		t.Logf("%-22s %v", name, err)
	}
}

// TestParseRequestRest: the members the scanner does not own reach the
// callback raw, in order, with their keys unescaped; the callback's error is
// the parse's.
func TestParseRequestRest(t *testing.T) {
	body := `{"session":"t-1","shape":[1,1,2],"mask":true,"data":[1,2],"box":{"x":0.5}}`
	var seen []string
	img, err := ParseRequest([]byte(body), nil, func(key, value []byte) error {
		seen = append(seen, string(key)+"="+string(value))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(seen, " "), `session="t-1" mask=true box={"x":0.5}`; got != want {
		t.Fatalf("rest saw %s, want %s", got, want)
	}
	if img.Dim(2) != 2 || img.Data[1] != 2 {
		t.Fatalf("tensor %v %v", img.Shape(), img.Data)
	}
	refused := errors.New("not this member")
	if _, err = ParseRequest([]byte(body), nil, func(_, _ []byte) error { return refused }); !errors.Is(err, refused) {
		t.Fatalf("the callback's error came back as %v", err)
	}
}

// TestParseRequestReusesTheBuffer: a parse into a tensor of the request's
// shape fills that tensor and allocates nothing; another shape gets a new
// tensor. The zero is the request path's budget: it fails if the literal's
// string conversion ever reaches the heap.
func TestParseRequestReusesTheBuffer(t *testing.T) {
	body := encodedRequest(t, randomImage(2, 3, 48, 96))
	buf := tensor.New(3, 48, 96)
	got, err := ParseRequest(body, buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != buf {
		t.Fatal("a buffer of the request's shape was not reused")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := ParseRequest(body, buf, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm parse: %v allocs, want 0", allocs)
	}
	other, err := ParseRequest(encodedRequest(t, randomImage(3, 3, 4, 4)), buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other == buf || other.Dim(1) != 4 {
		t.Fatalf("a buffer of another shape was reused as %v", other.Shape())
	}
}

// viaEncodingJSON is the decode ParseRequest replaced, kept as the oracle.
func viaEncodingJSON(body []byte) (*tensor.Tensor, error) {
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return req.Tensor()
}

// onlyStricter reports whether body, which encoding/json decodes into a
// valid request, falls under one of the documented strictnesses: trailing
// bytes after the value, a "shape"/"data" key in another case folding, a
// repeated one, or a null where pixels belong.
func onlyStricter(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	var shapes, datas int
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key := tok.(string)
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			return false
		}
		isShape, isData := strings.EqualFold(key, "shape"), strings.EqualFold(key, "data")
		if isShape {
			shapes++
		}
		if isData {
			datas++
		}
		if (isShape && key != "shape") || (isData && key != "data") {
			return true
		}
		if (isShape || isData) && bytes.Contains(value, []byte("null")) {
			return true
		}
	}
	if shapes > 1 || datas > 1 {
		return true
	}
	if _, err := dec.Token(); err != nil { // the closing brace
		return false
	}
	return len(bytes.TrimSpace(body[dec.InputOffset():])) > 0
}

// FuzzDecodeRequest is the scanner's differential against encoding/json.
// Sound: whatever ParseRequest accepts, json.Unmarshal + Request.Tensor
// accept with the same shape and bit-identical floats. Complete up to the
// documented list: whatever only encoding/json accepts is trailing bytes, a
// case-folded or repeated shape/data key, or a null pixel. And no input
// panics either.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(encodedRequest(f, randomImage(4, 3, 2, 2)))
	for _, seed := range []string{
		``, `{`, `{}`, `null`, `not json at all`,
		`{"shape":[3,1,1],"data":[1e38,-1e38,0],"extra":"field"}`,
		`{"data":[1,2.5e-3,-0],"shape":[3,1,1]}`,
		` { "shape" : [ 1 , 1 , 2 ] , "data" : [ 1 , 2 ] } `,
		`{"shape":[3,4294967296,4294967296],"data":[]}`,
		`{"shape":[1,1,1],"data":[1]} trailing garbage`,
		`{"shape":[1,1,1],"DATA":[1]}`,
		`{"shape":[1,1,1],"data":[1],"data":[2]}`,
		`{"shape":[1,1,1],"data":[null]}`,
		`{"shape":[1,1,2],"data":[1e39,0x10]}`,
		`{"shape":[1,1,1],"data":[1],"nest":[[[{"a":"\"]}"}]]]}`,
		`{"shape":[1,1,1],"data":[0.1234567890123456789012345678901234567890]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := ParseRequest(body, nil, nil)
		want, jsonErr := viaEncodingJSON(body)
		switch {
		case err == nil && jsonErr != nil:
			t.Fatalf("the scanner accepted %q, encoding/json says %v", body, jsonErr)
		case err == nil:
			sameTensorBits(t, got, want)
		case jsonErr == nil && !onlyStricter(body):
			t.Fatalf("the scanner rejected %q (%v), which encoding/json accepts and no documented strictness covers", body, err)
		}
	})
}

// BenchmarkParseRequest times the request path's parse at the serve-http
// benchmark's frame size, against the encoding/json decode it replaced.
func BenchmarkParseRequest(b *testing.B) {
	body := encodedRequest(b, randomImage(5, 3, 48, 96))
	buf := tensor.New(3, 48, 96)
	b.Run("scanner", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := ParseRequest(body, buf, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := viaEncodingJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
