package main

import "testing"

// cpuUnitGolden is cpu_unit's checksum. If this test fails, someone
// edited the unit: every timing metric of the benchmark is re-baselined
// and no earlier run compares with a later one. Restore the unit.
const cpuUnitGolden uint64 = 0x1060e40e70d90108

func TestCPUUnitGolden(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for i := 0; i < 2; i++ { // the unit must not depend on what it left behind
		if got := c.cpuUnit(); got != cpuUnitGolden {
			t.Fatalf("call %d: cpu_unit checksum %#x, golden %#x", i, got, cpuUnitGolden)
		}
	}
}

func TestRTTUnit(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cpuMs, rttMs, err := c.sample()
		if err != nil {
			t.Fatal(err)
		}
		if cpuMs <= 0 || rttMs <= 0 {
			t.Fatalf("units took %v ms and %v ms", cpuMs, rttMs)
		}
	}
	c.close() // returns only once the echo goroutine has exited
	if err := c.rttUnit(); err == nil {
		t.Error("rtt_unit succeeded on a closed calibrator")
	}
}
