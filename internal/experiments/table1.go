package experiments

// Table1 reproduces the related-work survey (Table 1): the DAC-SDC winning
// entries, their reference DNNs, and the optimizations they apply — with a
// column mapping each optimization to where this repository implements it
// (all but pruning, which SkyNet's bottom-up flow does without).
func Table1(o Options) Table {
	t := Table{
		ID:     "Table 1",
		Title:  "DAC-SDC winning entries and their top-down optimizations",
		Header: []string{"Rank", "Team", "Track", "Reference DNN", "Optimizations"},
	}
	rows := [][]string{
		{"'19 1st", "SkyNet (this work)", "GPU+FPGA", "bottom-up searched", "bypass+reorder, ReLU6, quant, batch+tiling, pipeline"},
		{"'19 2nd", "Thinker", "GPU", "ShuffleNet + RetinaNet", "1 2 3 9"},
		{"'19 3rd", "DeepZS", "GPU", "Tiny YOLO", "9"},
		{"'18 1st", "ICT-CAS", "GPU", "Tiny YOLO", "1 2 3 4"},
		{"'18 2nd", "DeepZ", "GPU", "Tiny YOLO", "9"},
		{"'18 3rd", "SDU-Legend", "GPU", "YOLOv2", "1 2 3 9"},
		{"'19 2nd", "XJTU Tripler", "FPGA", "ShuffleNetV2 + YOLO", "2 3 5 6 8"},
		{"'19 3rd", "SystemsETHZ", "FPGA", "SqueezeNet + YOLO", "1 2 3 7"},
		{"'18 1st", "TGIIF", "FPGA", "SSD", "1 2 3 5 6"},
		{"'18 2nd", "SystemsETHZ", "FPGA", "SqueezeNet + YOLO", "1 2 3 7"},
		{"'18 3rd", "iSmart2", "FPGA", "MobileNet + YOLO", "1 2 3 5 7"},
	}
	t.Rows = rows
	t.Notes = []string{
		"optimization key -> implementation in this repository:",
		"  1 input resizing        -> dataset.BilinearResize / fpga resize-factor study (fig2b)",
		"  2 network pruning       -> not implemented: the bottom-up flow needs no pruning (§1)",
		"  3 data quantization     -> internal/quant (fixed point, Table 7 schemes, grouped fig2a)",
		"  4 TensorRT / FP16       -> not implemented: the engines here run float32 and int8",
		"  5 CPU-FPGA partition    -> internal/pipeline task partitioning (fig10)",
		"  6 double-pumped DSP     -> fpga.DSPPerMult packing table (fig2c)",
		"  7 fine-grained pipeline -> fpga.Simulate tile-level double-buffered schedule",
		"  8 clock gating          -> fpga.Report.PowerW utilization-proportional power model",
		"  9 multithreading        -> pipeline.Executor streaming executor (3.35x speedup)",
		"reference DNN analogs here: Tiny-YOLO-class heads (detect.NewClassHead), MobileNetV1 (backbone.MobileNetV1)",
	}
	return t
}
