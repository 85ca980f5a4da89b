package heteropim

import (
	"bytes"
	"strings"
	"testing"
)

func TestHardwareConfigRoundTrip(t *testing.T) {
	h := DefaultHardware(ConfigHeteroPIM)
	var buf bytes.Buffer
	if err := h.SaveHardware(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHardware(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != h.Name() || got.FixedUnits() != h.FixedUnits() {
		t.Fatalf("round trip changed config: %s/%d vs %s/%d",
			got.Name(), got.FixedUnits(), h.Name(), h.FixedUnits())
	}
	if _, err := LoadHardware(strings.NewReader("{broken")); err == nil {
		t.Fatal("garbage hardware JSON must error")
	}
}

func TestWithFixedUnitsScalesPerformance(t *testing.T) {
	base := DefaultHardware(ConfigHeteroPIM)
	small, err := base.WithFixedUnits(111)
	if err != nil {
		t.Fatal(err)
	}
	big, err := base.WithFixedUnits(888)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunOnHardware(small, AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunOnHardware(big, AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	if rb.StepTime >= rs.StepTime {
		t.Fatalf("888 units (%g) should beat 111 units (%g)", rb.StepTime, rs.StepTime)
	}
	if _, err := base.WithFixedUnits(-1); err == nil {
		t.Fatal("negative budget must error")
	}
}

func TestWithStackFrequencyScale(t *testing.T) {
	base := DefaultHardware(ConfigHeteroPIM)
	fast, err := base.WithStackFrequencyScale(4)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunOnHardware(base, AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunOnHardware(fast, AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	if r4.StepTime >= r1.StepTime {
		t.Fatal("4x stack must be faster")
	}
	if _, err := base.WithStackFrequencyScale(0); err == nil {
		t.Fatal("zero scale must error")
	}
}

func TestRunOnHardwareUnknownModel(t *testing.T) {
	if _, err := RunOnHardware(DefaultHardware(ConfigHeteroPIM), "nope"); err == nil {
		t.Fatal("unknown model must error")
	}
}
