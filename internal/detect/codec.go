package detect

// Wire codecs for the serving layer: a detection request carries one
// [C,H,W] image tensor as shape + flat data, a response carries the decoded
// box and confidence. JSON keeps the service dependency-free (stdlib only)
// and the float formatting is deterministic, so two bitwise-equal
// detections always serialize to identical bytes — the property the
// serving equivalence tests pin.
//
// Requests are read by ParseRequest, a hand-written scanner over the whole
// body: 150 KB of pixel literals through encoding/json's reflective decoder
// cost three times the forward pass they fed (and 39 allocations, 722 KB),
// so the pixels go through strconv.ParseFloat(…, 32) — the call
// encoding/json itself makes for a float32, hence the same bits — straight
// into the tensor the model reads. Every other member of the object is still
// encoding/json's: the scanner finds its extent, json.Valid checks it, and
// the caller's callback unmarshals the ones it knows. Responses are encoded
// by encoding/json throughout.
//
// The scanner enforces RFC 8259 itself (ParseFloat alone would admit Inf,
// NaN, hex floats, "+1" and ".5"), and is deliberately stricter than
// encoding/json's Decoder in four ways. Each turns an answer into a 400,
// never into a different answer, and EncodeRequest produces none of them:
//
//   - Bytes after the object other than whitespace are an error. A
//     Decoder stops at the end of the first value and ignores the rest.
//   - "shape" and "data" must be spelled exactly. encoding/json also
//     accepts any case folding of a field name ("DATA", "ſhape"); such a
//     key is rejected here rather than skipped as unknown, so a body can
//     never mean one tensor to this scanner and another to encoding/json.
//   - A repeated "shape" or "data" member is an error (encoding/json keeps
//     the last, silently).
//   - A null pixel, or a null "shape" or "data", is an error (encoding/json
//     reads a null array element as 0 and a null array as absent).
//
// FuzzDecodeRequest holds both directions against encoding/json: what the
// scanner accepts, encoding/json accepts with the same shape and the same
// float bits; what only encoding/json accepts is on the list above.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"skynet/internal/tensor"
)

// MaxRequestElements bounds the pixel count a request's shape may claim, and
// each of its dimensions: nothing larger is allocated for. It does not by
// itself bound the bytes a front door reads — the HTTP handlers in
// internal/serve cap the body, at a limit derived from this constant, before
// they read it.
const MaxRequestElements = 1 << 22 // 4Mi floats = 16 MiB, ample for 3×H×W frames

// Request is the wire form of one detection call.
type Request struct {
	// Shape is the image shape, [C,H,W].
	Shape []int `json:"shape"`
	// Data holds Shape[0]*Shape[1]*Shape[2] values in CHW order.
	Data []float32 `json:"data"`
}

// NewRequest wraps a [C,H,W] tensor in the wire form. The tensor's data is
// referenced, not copied.
func NewRequest(img *tensor.Tensor) Request {
	return Request{Shape: img.Shape(), Data: img.Data}
}

// shapeElements validates a request shape — rank 3, every dimension and the
// running product within [1, MaxRequestElements], each checked before the
// multiplication that could wrap — and returns its element count.
func shapeElements(shape []int) (int, error) {
	n, why := 1, ""
	if len(shape) != 3 {
		why = ", want [C,H,W]"
	}
	for _, d := range shape {
		if why != "" {
			break
		}
		switch {
		case d <= 0:
			why = " has a non-positive dim"
		case d > MaxRequestElements/n:
			why = fmt.Sprintf(" carries more than %d elements", MaxRequestElements)
		default:
			n *= d
		}
	}
	if why != "" {
		// The copy keeps the caller's shape off the heap on the path that
		// returns no error.
		return 0, fmt.Errorf("request shape %v%s", append([]int(nil), shape...), why)
	}
	return n, nil
}

// Tensor validates the request and converts it into a [C,H,W] tensor that
// owns its data.
func (r Request) Tensor() (*tensor.Tensor, error) {
	n, err := shapeElements(r.Shape)
	if err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	if n != len(r.Data) {
		return nil, fmt.Errorf("detect: request shape %v wants %d values, got %d", r.Shape, n, len(r.Data))
	}
	t := tensor.New(r.Shape...)
	copy(t.Data, r.Data)
	return t, nil
}

// Response is the wire form of one detection result. Exactly one of
// (Box, Conf) and Error is meaningful.
type Response struct {
	Box  Box     `json:"box"`
	Conf float64 `json:"conf"`
	// Error carries the failure reason for non-2xx statuses.
	Error string `json:"error,omitempty"`
}

// EncodeRequest writes the image as a JSON request.
func EncodeRequest(w io.Writer, img *tensor.Tensor) error {
	return json.NewEncoder(w).Encode(NewRequest(img))
}

// DecodeRequest reads a JSON request to its end and returns the validated
// tensor: ParseRequest over everything r holds.
func DecodeRequest(r io.Reader) (*tensor.Tensor, error) {
	var body bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		body.Grow(sized.Len() + bytes.MinRead) // one allocation, not a doubling series
	}
	if _, err := body.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("detect: reading request: %w", err)
	}
	return ParseRequest(body.Bytes(), nil, nil)
}

// ParseRequest parses body, one whole JSON request object, and returns its
// "shape" and "data" members as a validated [C,H,W] tensor. The pixels are
// written into reuse when it already has the request's shape — a warm parse
// then allocates nothing — and into a new tensor otherwise; reuse may be
// nil, and its contents are unspecified after an error. Every other member
// is checked to be valid JSON and, when rest is not nil, handed to it as
// (key, raw value), the key unescaped, in body order; an error from rest
// fails the parse. Neither slice may be kept: both alias body or scratch.
func ParseRequest(body []byte, reuse *tensor.Tensor, rest func(key, value []byte) error) (*tensor.Tensor, error) {
	s := scanner{b: body}
	img, err := s.request(reuse, rest)
	if err != nil {
		return nil, fmt.Errorf("detect: decoding request: %w", err)
	}
	return img, nil
}

// scanner is a cursor over one request body.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.i, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// request parses the top-level object and whatever follows it.
func (s *scanner) request(reuse *tensor.Tensor, rest func(key, value []byte) error) (*tensor.Tensor, error) {
	var (
		dims   [3]int
		n      int // element count: positive once the shape is known
		img    *tensor.Tensor
		dataAt = -1 // where a "data" that preceded "shape" starts
	)
	// fill parses the data array at the cursor into the tensor of the
	// (known) shape.
	fill := func() error {
		img = reuse
		if img == nil || img.Rank() != 3 || img.Dim(0) != dims[0] || img.Dim(1) != dims[1] || img.Dim(2) != dims[2] {
			img = tensor.New(dims[0], dims[1], dims[2])
		}
		return s.floats(img.Data[:n])
	}
	s.ws()
	if !s.eat('{') {
		return nil, s.errorf("want a JSON object")
	}
	s.ws()
	for first := true; !s.eat('}'); first = false {
		if !first {
			if !s.eat(',') {
				return nil, s.errorf("want ',' or '}' after an object member")
			}
			s.ws()
		}
		key, err := s.key()
		if err != nil {
			return nil, err
		}
		s.ws()
		if !s.eat(':') {
			return nil, s.errorf("want ':' after an object key")
		}
		s.ws()
		switch {
		case string(key) == "shape":
			if n > 0 {
				return nil, s.errorf(`duplicate "shape"`)
			}
			if n, err = s.shape(&dims); err != nil {
				return nil, err
			}
		case string(key) == "data":
			switch {
			case img != nil || dataAt >= 0:
				err = s.errorf(`duplicate "data"`)
			case n > 0:
				err = fill()
			case s.i < len(s.b) && s.b[s.i] == '[':
				// The shape follows: remember where the pixels are and parse
				// them once their count is known.
				dataAt = s.i
				err = s.skip()
			default:
				err = s.errorf(`"data" must be an array of numbers`)
			}
			if err != nil {
				return nil, err
			}
		case bytes.EqualFold(key, []byte("shape")), bytes.EqualFold(key, []byte("data")):
			return nil, s.errorf("key %q must be spelled in lower case", key)
		default:
			start := s.i
			if err := s.skip(); err != nil {
				return nil, err
			}
			value := s.b[start:s.i]
			if !json.Valid(value) {
				s.i = start
				return nil, s.errorf("member %q is not valid JSON", key)
			}
			if rest != nil {
				if err := rest(key, value); err != nil {
					return nil, err
				}
			}
		}
		s.ws()
	}
	s.ws()
	if s.i != len(s.b) {
		return nil, s.errorf("unexpected data after the request object")
	}
	if n == 0 {
		return nil, errors.New(`no "shape" member`)
	}
	if dataAt >= 0 {
		s.i = dataAt
		if err := fill(); err != nil {
			return nil, err
		}
	}
	if img == nil {
		return nil, errors.New(`no "data" member`)
	}
	return img, nil
}

// key parses an object key at the cursor and returns it unescaped. A key
// without escapes is returned as a slice of the body; one with them takes
// encoding/json's unquoting.
func (s *scanner) key() ([]byte, error) {
	if !s.eat('"') {
		return nil, s.errorf("want a string object key")
	}
	start := s.i
	escaped := false
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			raw := s.b[start:s.i]
			s.i++
			if !escaped {
				return raw, nil
			}
			var key string
			if err := json.Unmarshal(s.b[start-1:s.i], &key); err != nil {
				s.i = start
				return nil, s.errorf("object key: %v", err)
			}
			return []byte(key), nil
		case c == '\\':
			escaped = true
			s.i++ // whatever follows cannot end the string
		case c < ' ':
			return nil, s.errorf("control character in an object key")
		}
	}
	return nil, s.errorf("unterminated object key")
}

// structural holds the bytes that end a number or a literal.
var structural = []byte(",:[]{}\" \t\n\r")

// skip moves the cursor past one JSON value without validating it: strings
// by their quotes, arrays and objects by bracket depth, anything else up to
// the next delimiter. The caller validates the extent (json.Valid), or
// parses it again strictly.
func (s *scanner) skip() error {
	depth := 0
	for s.i < len(s.b) {
		switch c := s.b[s.i]; c {
		case '"':
			for s.i++; s.i < len(s.b) && s.b[s.i] != '"'; s.i++ {
				if s.b[s.i] == '\\' {
					s.i++
				}
			}
			if s.i >= len(s.b) {
				return s.errorf("unterminated string")
			}
			s.i++
		case '{', '[':
			depth++
			s.i++
		case '}', ']':
			if depth == 0 {
				return s.errorf("want a value")
			}
			depth--
			s.i++
		case ',', ':', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return s.errorf("want a value")
			}
			s.i++
		default: // a number or a literal: it runs to the next structural byte
			for s.i++; s.i < len(s.b) && bytes.IndexByte(structural, s.b[s.i]) < 0; s.i++ {
			}
		}
		if depth == 0 {
			return nil
		}
	}
	return s.errorf("unexpected end of the request")
}

// number returns the end of the RFC 8259 number at b[i:] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 when there is
// none, and whether it was written as an integer. It does not look at what
// follows: the caller's demand for a ',' or ']' next is what rejects "01"
// and "1x".
func number(b []byte, i int) (end int, integer bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i < 0 {
		return -1, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if i = digits(b, i+1); i < 0 {
			return -1, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); i < 0 {
			return -1, false
		}
	}
	return i, integer
}

// digits returns the end of the run of decimal digits at b[i:], or -1 when
// there is none.
func digits(b []byte, i int) int {
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// elements walks the JSON array of numbers at the cursor, calling elem with
// each literal and whether it was written as an integer.
func (s *scanner) elements(what string, elem func(literal []byte, integer bool) error) error {
	if !s.eat('[') {
		return s.errorf("%s must be an array of numbers", what)
	}
	s.ws()
	for first := true; !s.eat(']'); first = false {
		if !first {
			if !s.eat(',') {
				return s.errorf("want ',' or ']' in %s", what)
			}
			s.ws()
		}
		end, integer := number(s.b, s.i)
		if end < 0 {
			return s.errorf("%s wants numbers", what)
		}
		if err := elem(s.b[s.i:end], integer); err != nil {
			return fmt.Errorf("offset %d: %w", s.i, err)
		}
		s.i = end
		s.ws()
	}
	return nil
}

// shape parses the "shape" array into dims and returns the element count.
func (s *scanner) shape(dims *[3]int) (int, error) {
	rank := 0
	err := s.elements(`"shape"`, func(literal []byte, integer bool) error {
		if !integer {
			return errors.New(`"shape" wants integers`)
		}
		if rank == len(dims) {
			return errors.New(`"shape" has more than 3 dimensions, want [C,H,W]`)
		}
		// Eight characters cannot overflow an int, and anything longer is out
		// of range, since number admits no leading zeros.
		if len(literal) > 8 {
			return fmt.Errorf(`"shape" dimension %s is outside [1, %d]`, literal, MaxRequestElements)
		}
		dims[rank], _ = strconv.Atoi(string(literal))
		rank++
		return nil
	})
	if err != nil {
		return 0, err
	}
	return shapeElements(dims[:rank])
}

// floats parses the "data" array at the cursor into dst, exactly len(dst)
// numbers.
func (s *scanner) floats(dst []float32) error {
	n := 0
	err := s.elements(`"data"`, func(literal []byte, _ bool) error {
		if n == len(dst) {
			return fmt.Errorf(`"data" holds more than the %d values of the shape`, len(dst))
		}
		// The conversion does not escape (ParseFloat clones what its
		// errors keep), so a literal of ordinary length is parsed off the
		// stack.
		f, err := strconv.ParseFloat(string(literal), 32)
		if err != nil {
			return err
		}
		dst[n] = float32(f)
		n++
		return nil
	})
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf(`the shape wants %d values, "data" holds %d`, len(dst), n)
	}
	return nil
}

// EncodeResponse writes the response as one JSON line.
func EncodeResponse(w io.Writer, resp Response) error {
	return json.NewEncoder(w).Encode(resp)
}

// DecodeResponse reads one JSON response.
func DecodeResponse(r io.Reader) (Response, error) {
	var resp Response
	if err := json.NewDecoder(r).Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("detect: decoding response: %w", err)
	}
	return resp, nil
}
