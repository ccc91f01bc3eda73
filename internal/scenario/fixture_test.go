package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"testing"
)

const fixtureWriterDriver = `#lang shill/ambient

work = open_dir("/home/user/work");
f = create_file(work, "marker.txt");
write(f, "tainted\n");
`

const fixtureReaderDriver = `#lang shill/ambient
require "probe.cap";

work = open_dir("/home/user/work");
check(work, stdout);
`

const fixtureReaderCap = `#lang shill/cap

provide check;

check = fun(work, out) {
  r = lookup(work, "marker.txt");
  if is_syserror(r) then {
    append(out, "clean\n");
  } else {
    error("marker from the sibling scenario is visible across fixture restores");
  }
};
`

// TestFixtureIsolation proves the golden-image contract: two scenarios
// sharing a fixture each restore a private machine, so one scenario's
// writes can never leak into the other, and the shared base image's
// content address is unchanged by either run.
func TestFixtureIsolation(t *testing.T) {
	img, err := FixtureImage("workspace")
	if err != nil {
		t.Fatal(err)
	}
	id := img.ID()
	digestBefore := sha256.Sum256(img.Serialize())

	writer := &Scenario{
		Name:       "t/fixture-writer",
		Fixture:    "workspace",
		WriteRoots: []string{"/home/user/work"},
		Body: func(ctx context.Context, e *Env) error {
			e.Step(ctx, StepSpec{Name: "write-marker", Driver: fixtureWriterDriver,
				Expect: map[Mode]string{ModeSandboxed: "ok"}})
			return nil
		},
	}
	reader := &Scenario{
		Name:    "t/fixture-reader",
		Fixture: "workspace",
		Body: func(ctx context.Context, e *Env) error {
			e.Step(ctx, StepSpec{Name: "probe-marker", Driver: fixtureReaderDriver,
				Module: "probe.cap", Cap: fixtureReaderCap,
				Expect: map[Mode]string{ModeSandboxed: "ok"}})
			return nil
		},
	}

	wres := RunScenario(context.Background(), writer, []Mode{ModeSandboxed})
	if v := wres.Modes[0].Verdict; v != "passed" {
		t.Fatalf("writer scenario verdict = %s (%s) steps=%+v", v, wres.Modes[0].Detail, wres.Modes[0].Steps)
	}
	rres := RunScenario(context.Background(), reader, []Mode{ModeSandboxed})
	if v := rres.Modes[0].Verdict; v != "passed" {
		t.Fatalf("reader scenario observed the writer's mutation: %s (%s) steps=%+v", v, rres.Modes[0].Detail, rres.Modes[0].Steps)
	}
	if got := rres.Modes[0].Steps[0].Console; got != "clean\n" {
		t.Fatalf("reader console = %q, want \"clean\\n\"", got)
	}

	// The fixture image is immutable: same object, same content address,
	// byte-identical serialization after both scenarios ran on it.
	img2, err := FixtureImage("workspace")
	if err != nil {
		t.Fatal(err)
	}
	if img2 != img {
		t.Fatal("FixtureImage rebuilt the golden image instead of reusing it")
	}
	if img2.ID() != id {
		t.Fatalf("fixture image ID changed across scenario runs: %s -> %s", id, img2.ID())
	}
	digestAfter := sha256.Sum256(img2.Serialize())
	if !bytes.Equal(digestBefore[:], digestAfter[:]) {
		t.Fatal("fixture image serialization changed across scenario runs")
	}
}

func TestRegisterFixtureDuplicatePanics(t *testing.T) {
	mustPanic(t, "duplicate fixture workspace", func() {
		RegisterFixture(Fixture{Name: "workspace"})
	})
}

func TestFixtureUnknown(t *testing.T) {
	if _, err := FixtureImage("no-such-fixture"); err == nil {
		t.Fatal("FixtureImage on an unregistered name succeeded")
	}
}
