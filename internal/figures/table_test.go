package figures

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig. X", "protocol", "p50", "delay")
	tb.AddRow("SocialTube", 0.85, 120*time.Millisecond)
	tb.AddRow("NetTube", 0.53, time.Second)
	out := tb.String()
	for _, want := range []string{"Fig. X", "protocol", "SocialTube", "0.850", "NetTube", "120ms", "1s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableNaNRendersDash(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(math.NaN())
	if !strings.Contains(tb.String(), "-") {
		t.Error("NaN should render as dash")
	}
}

func TestFormatFloatRanges(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{0.001, "1.00e-03"},
		{0, "0.000"},
		{2e7, "2.000e+07"},
		{3.14159, "3.142"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.in); got != tt.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("Fig. X", "a", "b")
	tb.AddRow("plain", 1.5)
	tb.AddRow(`with,comma "quoted"`, 2)
	csv := tb.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3:\n%s", len(lines), csv)
	}
	if lines[0] != "a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], `"with,comma ""quoted"""`) {
		t.Fatalf("quoting wrong: %q", lines[2])
	}
	if strings.Contains(csv, "Fig. X") {
		t.Fatal("csv must not contain the title")
	}
	if tb.Title() != "Fig. X" {
		t.Fatal("title accessor wrong")
	}
}
