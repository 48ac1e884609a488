package detect

// Wire codecs for the serving layer: a detection request carries one
// [C,H,W] image tensor as shape + flat data, a response carries the decoded
// box and confidence. JSON keeps the service dependency-free (stdlib only)
// and the float formatting is deterministic, so two bitwise-equal
// detections always serialize to identical bytes — the property the
// serving equivalence tests pin.

import (
	"encoding/json"
	"fmt"
	"io"

	"skynet/internal/tensor"
)

// MaxRequestElements bounds the pixel count a request's shape may claim:
// Tensor rejects anything larger before allocating for it. It does not by
// itself bound what a decoder materialises from the wire — Data has already
// been parsed by the time Tensor runs — so the HTTP handlers in
// internal/serve also cap the body's bytes, at a limit derived from this
// constant, before decoding.
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

// Tensor validates the request and converts it into a [C,H,W] tensor that
// owns its data.
func (r Request) Tensor() (*tensor.Tensor, error) {
	if len(r.Shape) != 3 {
		return nil, fmt.Errorf("detect: request shape %v, want [C,H,W]", r.Shape)
	}
	n := 1
	for _, d := range r.Shape {
		if d <= 0 {
			return nil, fmt.Errorf("detect: request shape %v has a non-positive dim", r.Shape)
		}
		n *= d
	}
	if n > MaxRequestElements {
		return nil, fmt.Errorf("detect: request carries %d elements, limit %d", n, MaxRequestElements)
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

// DecodeRequest reads a JSON request and returns the validated tensor.
func DecodeRequest(r io.Reader) (*tensor.Tensor, error) {
	var req Request
	dec := json.NewDecoder(r)
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("detect: decoding request: %w", err)
	}
	return req.Tensor()
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
