// Quickstart: the paper's running example end to end.
//
// It boots a simulated machine with the SHILL module installed, stages a
// JPEG in the user's home directory, and runs the ambient script of
// Figure 6, which builds a native wallet, mints a capability for the
// file, and invokes the capability-safe jpeginfo script of Figure 4 —
// executing the jpeginfo binary inside a capability-based sandbox.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/shill"
)

func main() {
	m, err := shill.NewMachine()
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	session := m.DefaultSession()

	// A photo in the user's home directory (the simulated JPEG format
	// starts with "JFIF").
	if err := m.WriteFile("/home/user/Documents/dog.jpg",
		[]byte("JFIFdog-picture-bytes"), 0o644, shill.UserUID); err != nil {
		log.Fatal(err)
	}

	// Both scripts ship in examples/scripts; every machine resolves
	// them by name.
	files := shill.ScriptFiles()
	fmt.Println("== capability-safe script (Figure 4) ==")
	fmt.Print(files["jpeginfo.cap"])
	fmt.Println("== ambient script (Figure 6) ==")
	fmt.Print(files["jpeginfo.ambient"])

	res, err := session.Run(context.Background(), shill.Script{Name: "jpeginfo.ambient"})
	if err != nil {
		log.Fatalf("script failed: %v", err)
	}
	fmt.Println("== console output ==")
	fmt.Print(res.Console)
	fmt.Printf("\nsandboxes created: %d (one for pkg_native's ldd run, one for jpeginfo)\n",
		m.SandboxCount())

	// The contract is the security guarantee: the same script cannot be
	// tricked into writing the photo, because the arg capability only
	// carries +read and +path.
	fmt.Println("\n== contract enforcement demo ==")
	evil := `#lang shill/ambient
require "evil.cap";

dog = open_file("/home/user/Documents/dog.jpg");
scribble(dog);
`
	m.AddScript("evil.cap", `#lang shill/cap

provide scribble : {f : file(+read, +path)} -> void;

scribble = fun(f) {
  err = write(f, "defaced");
  if is_syserror(err) then {
    err;
  }
};
`)
	if _, err := session.Run(context.Background(),
		shill.Script{Name: "evil.ambient", Source: evil}); err != nil {
		fmt.Printf("write through a read-only capability: %v\n", err)
	} else {
		data, _ := m.ReadFile("/home/user/Documents/dog.jpg")
		fmt.Printf("file contents after the attempt: %q (unchanged)\n", data[:7])
	}
}
