package headerspace

import "testing"

func TestTransferPrioritySemantics(t *testing.T) {
	tf := NewTransferFunction(2)
	// High priority: drop 11. Low priority: forward 1x to port 2.
	if err := tf.AddRule(Rule{Priority: 10, Match: MustParse("11")}); err != nil {
		t.Fatal(err)
	}
	if err := tf.AddRule(Rule{Priority: 1, Match: MustParse("1x"), OutPorts: []PortID{2}}); err != nil {
		t.Fatal(err)
	}
	ems := tf.Apply(FullSpace(2), 1)
	if len(ems) != 1 {
		t.Fatalf("emissions = %d, want 1", len(ems))
	}
	if ems[0].Port != 2 {
		t.Errorf("port = %d, want 2", ems[0].Port)
	}
	// Only 10 survives (11 eaten by the drop rule).
	if !ems[0].Space.Equal(sp("10")) {
		t.Errorf("space = %s, want {10}", ems[0].Space)
	}
}

func TestTransferInPortFilter(t *testing.T) {
	tf := NewTransferFunction(1)
	mustAdd(t, tf, Rule{Priority: 1, Match: MustParse("x"), InPorts: []PortID{5}, OutPorts: []PortID{6}})
	if got := tf.Apply(FullSpace(1), 4); len(got) != 0 {
		t.Errorf("rule matched wrong in-port: %v", got)
	}
	if got := tf.Apply(FullSpace(1), 5); len(got) != 1 {
		t.Errorf("rule missed correct in-port: %v", got)
	}
}

func TestTransferRewrite(t *testing.T) {
	tf := NewTransferFunction(4)
	mustAdd(t, tf, Rule{
		Priority: 1,
		Match:    MustParse("1xxx"),
		Mask:     MustParse("0011"),
		Value:    MustParse("xx01"),
		OutPorts: []PortID{9},
	})
	ems := tf.Apply(sp("1x1x"), 1)
	if len(ems) != 1 {
		t.Fatalf("emissions = %d, want 1", len(ems))
	}
	if !ems[0].Space.Equal(sp("1x01")) {
		t.Errorf("rewritten = %s, want {1x01}", ems[0].Space)
	}
}

func TestTransferMulticast(t *testing.T) {
	tf := NewTransferFunction(1)
	mustAdd(t, tf, Rule{Priority: 1, Match: MustParse("x"), OutPorts: []PortID{1, 2, 3}})
	ems := tf.Apply(FullSpace(1), 0)
	if len(ems) != 3 {
		t.Fatalf("multicast emissions = %d, want 3", len(ems))
	}
}

func TestTransferEqualPriorityStableOrder(t *testing.T) {
	tf := NewTransferFunction(2)
	mustAdd(t, tf, Rule{Priority: 5, Match: MustParse("1x"), OutPorts: []PortID{1}})
	mustAdd(t, tf, Rule{Priority: 5, Match: MustParse("1x"), OutPorts: []PortID{2}})
	ems := tf.Apply(sp("1x"), 0)
	if len(ems) != 1 || ems[0].Port != 1 { // the rule added first wins
		t.Errorf("equal-priority order not stable: %+v", ems)
	}
}

func TestTransferWidthValidation(t *testing.T) {
	tf := NewTransferFunction(3)
	if err := tf.AddRule(Rule{Priority: 1, Match: MustParse("xx")}); err == nil {
		t.Error("want width error")
	}
	if err := tf.AddRule(Rule{
		Priority: 1, Match: MustParse("xxx"),
		Mask: MustParse("1"), Value: MustParse("1"),
	}); err == nil {
		t.Error("want rewrite width error")
	}
}

func TestApplyStopsWhenExhausted(t *testing.T) {
	tf := NewTransferFunction(1)
	mustAdd(t, tf, Rule{Priority: 3, Match: MustParse("x"), OutPorts: []PortID{1}})
	mustAdd(t, tf, Rule{Priority: 1, Match: MustParse("x"), OutPorts: []PortID{2}})
	ems := tf.Apply(FullSpace(1), 0)
	if len(ems) != 1 || ems[0].Port != 1 {
		t.Errorf("lower-priority rule should see nothing: %+v", ems)
	}
}

func mustAdd(t *testing.T, tf *TransferFunction, r Rule) {
	t.Helper()
	if err := tf.AddRule(r); err != nil {
		t.Fatal(err)
	}
}
