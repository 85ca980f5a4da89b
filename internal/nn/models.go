package nn

import (
	"fmt"
	"sync/atomic"
)

// ModelName enumerates the paper's training workloads (Section V-C).
type ModelName string

// The seven evaluated models.
const (
	VGG19Name       ModelName = "VGG-19"
	AlexNetName     ModelName = "AlexNet"
	DCGANName       ModelName = "DCGAN"
	ResNet50Name    ModelName = "ResNet-50"
	InceptionV3Name ModelName = "Inception-v3"
	LSTMName        ModelName = "LSTM"
	Word2VecName    ModelName = "Word2vec"
)

// CNNModelNames lists the five CNN training workloads of Figs. 8-15 in
// figure order.
func CNNModelNames() []ModelName {
	return []ModelName{VGG19Name, AlexNetName, DCGANName, ResNet50Name, InceptionV3Name}
}

// AllModelNames adds the two non-CNN models used in the mixed-workload
// study (Section VI-F).
func AllModelNames() []ModelName {
	return append(CNNModelNames(), LSTMName, Word2VecName)
}

// DefaultBatch returns the paper's batch size for a model
// (Section V-C: VGG-19/AlexNet/Inception-v3 32, Word2vec/ResNet-50 128,
// DCGAN 64, LSTM 20).
func DefaultBatch(name ModelName) int {
	switch name {
	case DCGANName:
		return 64
	case ResNet50Name, Word2VecName:
		return 128
	case LSTMName:
		return 20
	default:
		return 32
	}
}

// Build constructs the one-step training graph for a model at the
// paper's batch size.
func Build(name ModelName) (*Graph, error) {
	return BuildWithBatch(name, 0)
}

// BuildWithBatch builds a model at an explicit batch size (0 = the
// paper's default) — the batch-size sensitivity extension study.
func BuildWithBatch(name ModelName, batch int) (*Graph, error) {
	batch, err := checkModel(name, batch)
	if err != nil {
		return nil, err
	}
	return build(name, batch), nil
}

// checkModel validates a model and batch size the way BuildWithBatch
// does and returns the batch size it builds (0 becomes the paper's).
func checkModel(name ModelName, batch int) (int, error) {
	if batch <= 0 {
		batch = DefaultBatch(name)
	}
	switch name {
	case VGG19Name, AlexNetName, DCGANName, ResNet50Name, InceptionV3Name:
		return batch, nil
	case LSTMName, Word2VecName:
		if batch != DefaultBatch(name) {
			return 0, fmt.Errorf("nn: %s is fixed at batch %d", name, DefaultBatch(name))
		}
		return batch, nil
	default:
		return 0, fmt.Errorf("nn: unknown model %q", name)
	}
}

// builds counts build calls (Builds).
var builds atomic.Int64

// Builds returns how many built-in model graphs the process has built
// by name (Build, BuildWithBatch, and the Named sources and ModelDigest
// memo misses that build one). Tests read it to check that a call
// builds each graph it needs once.
func Builds() int64 { return builds.Load() }

// build constructs a model that checkModel accepted.
func build(name ModelName, batch int) *Graph {
	builds.Add(1)
	switch name {
	case VGG19Name:
		return buildVGG19(batch)
	case AlexNetName:
		return buildAlexNet(batch)
	case DCGANName:
		return buildDCGAN(batch)
	case ResNet50Name:
		return buildResNet50(batch)
	case InceptionV3Name:
		return buildInceptionV3(batch)
	case LSTMName:
		return LSTM()
	default:
		return Word2Vec()
	}
}

// VGG19 builds one training step of VGG-19 on ImageNet (batch 32):
// 16 convolutions in 5 blocks, 5 max-pools, 3 fully-connected layers.
func VGG19() *Graph { return buildVGG19(32) }

func buildVGG19(batch int) *Graph {
	bd := newBuilder(string(VGG19Name), batch)
	h, w := 224, 224
	c := 3
	blocks := []struct {
		convs, channels int
	}{{2, 64}, {2, 128}, {4, 256}, {4, 512}, {4, 512}}
	for bi, blk := range blocks {
		for ci := 0; ci < blk.convs; ci++ {
			bd.conv(fmt.Sprintf("conv%d_%d", bi+1, ci+1), h, w, c, 3, 3, blk.channels, 1, true, OpRelu, false)
			c = blk.channels
		}
		bd.pool(fmt.Sprintf("pool%d", bi+1), h, w, c, 2, 2, OpMaxPool)
		h, w = h/2, w/2
	}
	bd.fc("fc6", h*w*c, 4096, OpRelu)
	bd.fc("fc7", 4096, 4096, OpRelu)
	bd.fc("fc8", 4096, 1000, "")
	addFrameworkOps(bd, 20)
	grad := bd.loss(1000)
	bd.backward(grad)
	finishGraph(bd, float64(batch)*224*224*3*bytesPerElem, 0.63, 0.08)
	return bd.g
}

// AlexNet builds one training step of AlexNet on ImageNet (batch 32).
func AlexNet() *Graph { return buildAlexNet(32) }

func buildAlexNet(batch int) *Graph {
	bd := newBuilder(string(AlexNetName), batch)
	bd.conv("conv1", 227, 227, 3, 11, 11, 96, 4, false, OpRelu, false)
	bd.pool("pool1", 55, 55, 96, 3, 2, OpMaxPool)
	bd.conv("conv2", 27, 27, 96, 5, 5, 256, 1, true, OpRelu, false)
	bd.pool("pool2", 27, 27, 256, 3, 2, OpMaxPool)
	bd.conv("conv3", 13, 13, 256, 3, 3, 384, 1, true, OpRelu, false)
	bd.conv("conv4", 13, 13, 384, 3, 3, 384, 1, true, OpRelu, false)
	bd.conv("conv5", 13, 13, 384, 3, 3, 256, 1, true, OpRelu, false)
	bd.pool("pool5", 13, 13, 256, 3, 2, OpMaxPool)
	bd.fc("fc6", 6*6*256, 4096, OpRelu)
	bd.fc("fc7", 4096, 4096, OpRelu)
	bd.fc("fc8", 4096, 1000, "")
	addFrameworkOps(bd, 16)
	grad := bd.loss(1000)
	bd.backward(grad)
	finishGraph(bd, float64(batch)*227*227*3*bytesPerElem, 0.30, 0.08)
	return bd.g
}

// DCGAN builds one training step of DCGAN on MNIST (batch 64): a
// generator of fractionally-strided convolutions and a convolutional
// discriminator, trained jointly. Its profile is dominated by many small
// operations (Table I lists 52 distinct types and 905 invocations),
// which is why the paper uses it to stress the operation pipeline.
func DCGAN() *Graph { return buildDCGAN(64) }

func buildDCGAN(batch int) *Graph {
	bd := newBuilder(string(DCGANName), batch)
	// Generator: z(100) -> 7x7x128 -> 14x14x64 -> 28x28x1.
	bd.fc("gen/project", 100, 7*7*128, OpRelu)
	bd.batchNorm("gen/bn0", 7, 7, 128)
	bd.conv("gen/deconv1", 7, 7, 128, 5, 5, 64, 2, true, OpRelu, true)
	bd.batchNorm("gen/bn1", 14, 14, 64)
	bd.conv("gen/deconv2", 14, 14, 64, 5, 5, 1, 2, true, OpTanh, true)
	// Discriminator on the generated (and implicitly real) images.
	bd.conv("disc/conv1", 28, 28, 1, 5, 5, 64, 2, true, OpRelu, false)
	bd.conv("disc/conv2", 14, 14, 64, 5, 5, 128, 2, true, OpRelu, false)
	bd.fc("disc/fc", 7*7*128, 1, "")
	// The GAN training loop slices real/fake minibatches and applies
	// many small elementwise ops (84 Mul and 14 Slice invocations in
	// Table I).
	imgBytes := float64(batch*28*28) * bytesPerElem
	for i := 0; i < 14; i++ {
		bd.g.AddOp(Op{
			Name:        fmt.Sprintf("batch/Slice_%d", i),
			Type:        OpSlice,
			Bytes:       trafficSlice * 2 * imgBytes,
			UnitGranule: 1,
		})
	}
	for i := 0; i < 84; i++ {
		elems := float64(batch * 7 * 7 * 128)
		bd.g.AddOp(Op{
			Name:        fmt.Sprintf("gan/Mul_%d", i),
			Type:        OpMul,
			Muls:        elems,
			Bytes:       trafficElementwise * 2 * elems * bytesPerElem,
			UnitGranule: 1,
			Inputs:      bd.dep(),
		})
	}
	addFrameworkOps(bd, 40)
	grad := bd.loss(1)
	bd.backward(grad)
	finishGraph(bd, float64(batch)*28*28*bytesPerElem, 0.28, 0.03)
	return bd.g
}

// resnetBottleneck emits one ResNet-50 bottleneck block (1x1, 3x3, 1x1
// convolutions, each followed by batch norm, plus the residual Add that
// merges the block input back in) at the given geometry.
func resnetBottleneck(bd *builder, name string, h, w, inC, midC, outC, stride int) (int, int) {
	skipFrom := bd.lastFwd
	bd.conv(name+"/conv1x1a", h, w, inC, 1, 1, midC, 1, true, OpRelu, false)
	bd.batchNorm(name+"/bn1", h, w, midC)
	bd.conv(name+"/conv3x3", h, w, midC, 3, 3, midC, stride, true, OpRelu, false)
	h, w = convGeom(h, w, 3, 3, stride, true)
	bd.batchNorm(name+"/bn2", h, w, midC)
	bd.conv(name+"/conv1x1b", h, w, midC, 1, 1, outC, 1, true, OpRelu, false)
	bd.batchNorm(name+"/bn3", h, w, outC)
	// Residual shortcut: elementwise Add of the block input (identity
	// or 1x1-projected) with the block output.
	elems := fmElems(bd.b, h, w, outC)
	inputs := []int{bd.lastFwd}
	if skipFrom >= 0 {
		inputs = append(inputs, skipFrom)
	}
	add := bd.g.AddOp(Op{
		Name: name + "/" + string(OpAdd) + "_residual", Type: OpAdd,
		Adds:        elems,
		Bytes:       trafficElementwise * 3 * elems * bytesPerElem,
		UnitGranule: 1,
		Inputs:      inputs,
	})
	bd.lastFwd = add.ID
	return h, w
}

// ResNet50 builds one training step of ResNet-50 on ImageNet
// (batch 128) — the paper's largest working set, which is where
// Hetero PIM overtakes the GPU (Section VI-A).
func ResNet50() *Graph { return buildResNet50(128) }

func buildResNet50(batch int) *Graph {
	bd := newBuilder(string(ResNet50Name), batch)
	bd.conv("conv1", 224, 224, 3, 7, 7, 64, 2, true, OpRelu, false)
	bd.batchNorm("bn1", 112, 112, 64)
	bd.pool("pool1", 112, 112, 64, 3, 2, OpMaxPool)
	h, w := 55, 55
	stages := []struct {
		blocks, mid, out, stride int
	}{
		{3, 64, 256, 1},
		{4, 128, 512, 2},
		{6, 256, 1024, 2},
		{3, 512, 2048, 2},
	}
	inC := 64
	for si, st := range stages {
		for b := 0; b < st.blocks; b++ {
			stride := 1
			if b == 0 {
				stride = st.stride
			}
			h, w = resnetBottleneck(bd, fmt.Sprintf("stage%d/block%d", si+2, b), h, w, inC, st.mid, st.out, stride)
			inC = st.out
		}
	}
	bd.pool("avgpool", h, w, inC, h, 1, OpAvgPool)
	bd.fc("fc1000", inC, 1000, "")
	addFrameworkOps(bd, 60)
	grad := bd.loss(1000)
	bd.backward(grad)
	finishGraph(bd, float64(batch)*224*224*3*bytesPerElem, 0.44, 0.30)
	return bd.g
}

// inceptionModule emits a simplified Inception-v3 module: four parallel
// branches (1x1 / 1x1+3x3 / 1x1+3x3+3x3 / pool+1x1) concatenated.
func inceptionModule(bd *builder, name string, h, w, inC, b1, b3, b5, pp int) int {
	head := bd.lastFwd
	outC := b1 + b3 + b5 + pp
	branch := func(sub string, emit func()) {
		bd.lastFwd = head
		emit()
	}
	branch("b1", func() { bd.conv(name+"/b1/1x1", h, w, inC, 1, 1, b1, 1, true, OpRelu, false) })
	tail1 := bd.lastFwd
	branch("b3", func() {
		bd.conv(name+"/b3/1x1", h, w, inC, 1, 1, b3/2, 1, true, OpRelu, false)
		bd.conv(name+"/b3/3x3", h, w, b3/2, 3, 3, b3, 1, true, OpRelu, false)
	})
	tail2 := bd.lastFwd
	branch("b5", func() {
		bd.conv(name+"/b5/1x1", h, w, inC, 1, 1, b5/2, 1, true, OpRelu, false)
		bd.conv(name+"/b5/3x3a", h, w, b5/2, 3, 3, b5, 1, true, OpRelu, false)
		bd.conv(name+"/b5/3x3b", h, w, b5, 3, 3, b5, 1, true, OpRelu, false)
	})
	tail3 := bd.lastFwd
	branch("pp", func() { bd.conv(name+"/pool_proj/1x1", h, w, inC, 1, 1, pp, 1, true, OpRelu, false) })
	tail4 := bd.lastFwd
	concatBytes := fmElems(bd.b, h, w, outC) * bytesPerElem
	cc := bd.g.AddOp(Op{
		Name:        name + "/" + string(OpConcat),
		Type:        OpConcat,
		Bytes:       trafficElementwise * 2 * concatBytes,
		UnitGranule: 1,
		Inputs:      []int{tail1, tail2, tail3, tail4},
	})
	bd.lastFwd = cc.ID
	return outC
}

// InceptionV3 builds one training step of a (structurally simplified)
// Inception-v3 on ImageNet (batch 32): a convolutional stem followed by
// eleven inception modules at three spatial scales.
func InceptionV3() *Graph { return buildInceptionV3(32) }

func buildInceptionV3(batch int) *Graph {
	bd := newBuilder(string(InceptionV3Name), batch)
	bd.conv("stem/conv1", 299, 299, 3, 3, 3, 32, 2, false, OpRelu, false)
	bd.conv("stem/conv2", 149, 149, 32, 3, 3, 32, 1, false, OpRelu, false)
	bd.conv("stem/conv3", 147, 147, 32, 3, 3, 64, 1, true, OpRelu, false)
	bd.pool("stem/pool1", 147, 147, 64, 3, 2, OpMaxPool)
	bd.conv("stem/conv4", 73, 73, 64, 1, 1, 80, 1, true, OpRelu, false)
	bd.conv("stem/conv5", 73, 73, 80, 3, 3, 192, 1, false, OpRelu, false)
	bd.pool("stem/pool2", 71, 71, 192, 3, 2, OpMaxPool)
	h, w, c := 35, 35, 192
	for i := 0; i < 3; i++ {
		c = inceptionModule(bd, fmt.Sprintf("mixed35_%d", i), h, w, c, 64, 96, 64, 32)
	}
	bd.pool("reduce17", h, w, c, 3, 2, OpMaxPool)
	h, w = 17, 17
	for i := 0; i < 5; i++ {
		c = inceptionModule(bd, fmt.Sprintf("mixed17_%d", i), h, w, c, 192, 192, 128, 96)
	}
	bd.pool("reduce8", h, w, c, 3, 2, OpMaxPool)
	h, w = 8, 8
	for i := 0; i < 3; i++ {
		c = inceptionModule(bd, fmt.Sprintf("mixed8_%d", i), h, w, c, 320, 384, 224, 128)
	}
	bd.pool("avgpool", h, w, c, h, 1, OpAvgPool)
	bd.fc("fc1000", c, 1000, "")
	addFrameworkOps(bd, 50)
	grad := bd.loss(1000)
	bd.backward(grad)
	finishGraph(bd, float64(batch)*299*299*3*bytesPerElem, 0.62, 0.10)
	return bd.g
}

// LSTM builds one training step of the PTB LSTM language model with
// dropout (batch 20, 2 layers, 650 hidden units, 35 unrolled steps).
func LSTM() *Graph {
	const (
		batch    = 20
		hidden   = 650
		vocab    = 10000
		steps    = 35
		layers   = 2
		embBytes = float64(vocab*hidden) * bytesPerElem
	)
	bd := newBuilder(string(LSTMName), batch)
	lookup := bd.g.AddOp(Op{
		Name:        "embedding/" + string(OpEmbeddingLookup),
		Type:        OpEmbeddingLookup,
		Bytes:       float64(batch*steps*hidden)*bytesPerElem + 0.02*embBytes,
		UnitGranule: 1,
	})
	bd.lastFwd = lookup.ID
	cellMacs := float64(batch) * 4 * float64(hidden) * float64(2*hidden)
	cellIO := float64(batch*hidden) * bytesPerElem
	wBytes := 4 * float64(2*hidden*hidden) * bytesPerElem
	var fwdCells []int
	for l := 0; l < layers; l++ {
		for t := 0; t < steps; t++ {
			cell := bd.g.AddOp(Op{
				Name: fmt.Sprintf("lstm%d/t%02d/%s", l, t, OpLSTMCell), Type: OpLSTMCell,
				Muls: cellMacs, Adds: cellMacs,
				OtherFlops:  float64(batch * hidden * 10),
				Bytes:       trafficMatMul*(wBytes) + 6*cellIO,
				UnitGranule: 127,
				Inputs:      bd.dep(),
			})
			bd.lastFwd = cell.ID
			fwdCells = append(fwdCells, cell.ID)
			drop := bd.g.AddOp(Op{
				Name:        fmt.Sprintf("lstm%d/t%02d/%s", l, t, OpDropout),
				Type:        OpDropout,
				OtherFlops:  float64(batch * hidden),
				Bytes:       trafficElementwise * 2 * cellIO,
				UnitGranule: 1,
				Inputs:      []int{cell.ID},
			})
			bd.lastFwd = drop.ID
		}
	}
	bd.fc("softmax_proj", hidden, vocab, "")
	addFrameworkOps(bd, 30)
	grad := bd.loss(vocab)
	// Projection-layer backward (MatMul grads + Adam).
	bd.backward(grad)
	// Backward through the cells in reverse.
	cur := grad
	for i := len(fwdCells) - 1; i >= 0; i-- {
		g := bd.g.AddOp(Op{
			Name: bd.g.Ops[fwdCells[i]].Name + "Grad", Type: OpLSTMCellGrad,
			Muls: 2 * cellMacs, Adds: 2 * cellMacs,
			OtherFlops:  float64(batch * hidden * 12),
			Bytes:       trafficMatMul*2*wBytes + 8*cellIO,
			UnitGranule: 127,
			Inputs:      []int{cur, fwdCells[i]},
		})
		cur = g.ID
	}
	// One fused weight update per layer.
	for l := 0; l < layers; l++ {
		bd.adam(fmt.Sprintf("lstm%d/weights", l), 4*float64(2*hidden*hidden), cur, fwdCells[l*steps])
	}
	bd.adam("embedding/weights", float64(vocab*hidden)*0.02, cur, lookup.ID)
	finishGraph(bd, float64(batch*steps)*bytesPerElem, 0.25, 0.05)
	return bd.g
}

// Word2Vec builds one training step of skip-gram Word2vec with NCE loss
// on the questions-words dataset (batch 128): almost no arithmetic, lots
// of irregular memory traffic — the canonical non-CNN co-run workload.
func Word2Vec() *Graph {
	const (
		batch  = 128
		dim    = 200
		vocab  = 50000
		negSam = 64
	)
	bd := newBuilder(string(Word2VecName), batch)
	embBytes := float64(vocab*dim) * bytesPerElem
	lookup := bd.g.AddOp(Op{
		Name:        "emb_in/" + string(OpEmbeddingLookup),
		Type:        OpEmbeddingLookup,
		Bytes:       float64(batch*dim)*bytesPerElem*8 + 0.01*embBytes,
		UnitGranule: 1,
	})
	bd.lastFwd = lookup.ID
	nceMacs := float64(batch) * float64(negSam+1) * float64(dim)
	nce := bd.g.AddOp(Op{
		Name: "nce/" + string(OpNCELoss), Type: OpNCELoss,
		Muls: nceMacs, Adds: nceMacs, OtherFlops: float64(batch * (negSam + 1) * 4),
		Bytes:       float64(batch*(negSam+1)*dim) * bytesPerElem * 2,
		UnitGranule: 127,
		Inputs:      []int{lookup.ID},
	})
	bd.lastFwd = nce.ID
	grads := bd.g.AddOp(Op{
		Name: "nce_grad/" + string(OpNCELoss), Type: OpNCELoss,
		Muls: 2 * nceMacs, Adds: 2 * nceMacs,
		Bytes:       float64(batch*(negSam+1)*dim) * bytesPerElem * 3,
		UnitGranule: 127,
		Inputs:      []int{nce.ID},
	})
	scatter := bd.g.AddOp(Op{
		Name:        "emb_in/" + string(OpEmbeddingGrad),
		Type:        OpEmbeddingGrad,
		Bytes:       float64(batch*dim)*bytesPerElem*12 + 0.01*embBytes,
		UnitGranule: 1,
		Inputs:      []int{grads.ID},
	})
	bd.adam("emb_in/weights", float64(batch*dim), scatter.ID, lookup.ID)
	// Word2vec's framework ops form a serial pipeline hanging off the
	// scatter update (the step is one short dependent chain, unlike the
	// wide CNN graphs).
	bd.lastFwd = scatter.ID
	chainKinds := []OpType{OpReshape, OpSum, OpSlice, OpMul, OpAdd}
	for i := 0; i < 25; i++ {
		t := chainKinds[i%len(chainKinds)]
		elems := float64(batch) * 2048
		op := Op{
			Name:        fmt.Sprintf("framework_%d/%s", i, t),
			Type:        t,
			OtherFlops:  elems,
			Bytes:       trafficElementwise * 2 * elems * bytesPerElem,
			UnitGranule: 1,
			Inputs:      bd.dep(),
		}
		if t == OpMul || t == OpAdd {
			op.OtherFlops = 0
			op.Muls = elems
		}
		added := bd.g.AddOp(op)
		bd.lastFwd = added.ID
	}
	finishGraph(bd, float64(batch*8)*bytesPerElem, 0.20, 0.05)
	return bd.g
}

// addFrameworkOps sprinkles n small framework operations over the graph
// (reshapes, sums, transposes, pads...) — the "Other N ops" tail of
// Table I.
func addFrameworkOps(bd *builder, n int) {
	kinds := []OpType{OpReshape, OpSum, OpTranspose, OpPad, OpMean, OpAdd, OpMul, OpSlice}
	for i := 0; i < n; i++ {
		t := kinds[i%len(kinds)]
		elems := float64(bd.b) * 4096
		switch t {
		case OpAdd, OpMul:
			bd.g.AddOp(Op{
				Name:        fmt.Sprintf("framework_%d/%s", i, t),
				Type:        t,
				Muls:        elems,
				Bytes:       trafficElementwise * 2 * elems * bytesPerElem,
				UnitGranule: 1,
				Inputs:      bd.dep(),
			})
		default:
			bd.misc(t, elems)
		}
	}
}

// finishGraph stamps the model-level metadata.
func finishGraph(bd *builder, inputBytes, gpuUtil, unhiddenFrac float64) {
	bd.g.InputBytes = inputBytes
	bd.g.GPUUtilization = gpuUtil
	bd.g.GPUUnhiddenTransferFrac = unhiddenFrac
	bd.g.GPUEffFactor = gpuEffFactors[ModelName(bd.g.Model)]
}

// gpuEffFactors are the per-model GPU calibration constants (DESIGN.md
// §2: the GPU model is calibrated to the paper's *relative* results).
var gpuEffFactors = map[ModelName]float64{
	VGG19Name:       0.86,
	AlexNetName:     1.70,
	DCGANName:       2.00,
	ResNet50Name:    0.85,
	InceptionV3Name: 0.90,
	LSTMName:        1.0,
	Word2VecName:    1.0,
}
