package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/shill"
)

// gradeSessions is how many closed-loop grading sessions share the
// machine: one per core of the reference host.
const gradeSessions = conns

// gradeEnv is the grading batch: one machine with the SHILL kernel
// module and its shipped defaults, one private course per session.
type gradeEnv struct {
	m        *shill.Machine
	sessions []*shill.Session
	rec      *recorder
}

func setupGrade(ctx context.Context, rec *recorder) (*gradeEnv, error) {
	m, err := shill.NewMachine()
	if err != nil {
		return nil, err
	}
	e := &gradeEnv{m: m, rec: rec}
	m.PrepareGradingSessions(gradeSessions, shill.DefaultGrading)
	for i := range gradeSessions {
		e.sessions = append(e.sessions, m.NewSession())
		// Warm: one graded course per session.
		if _, err := e.job(ctx, i, 0); err != nil {
			e.close()
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	return e, nil
}

func (e *gradeEnv) close() {
	for _, s := range e.sessions {
		s.Close()
	}
	e.m.Close()
}

// gradeJob is one graded course: its latency and whether it was right.
type gradeJob struct {
	lat            time.Duration
	err            error
	foreignDenials int
}

// job grades session i's course once: reset the outputs, run the
// Figure 9 SHILL-version grader, check every grade and the attacks.
// Only Session.Run is timed.
func (e *gradeEnv) job(ctx context.Context, i int, id int64) (gradeJob, error) {
	root := shill.GradingRoot(i)
	for _, d := range []string{"/work", "/grades"} {
		e.m.RemoveTree(root + d)
		if err := e.m.MkdirAll(root+d, 0o755, shill.UserUID); err != nil {
			return gradeJob{}, err
		}
	}
	s := e.sessions[i]
	src := shill.GradeAmbientShillAt(root, s.ConsolePath())
	start := time.Now()
	res, err := s.Run(ctx, shill.Script{Name: "grade.ambient", Source: src})
	end := time.Now()
	j := gradeJob{lat: end.Sub(start)}
	if e.rec.enabled() {
		e.rec.add(span{Req: id, Name: "client", Start: start, End: end})
		if res != nil {
			importTrace(e.rec, id, res.Trace)
		}
	}
	if err != nil {
		j.err = fmt.Errorf("grading: %w", err)
		return j, nil
	}
	j.err = e.checkGrades(root, res)
	for _, d := range res.Denials {
		if d.TraceID != res.TraceID {
			j.foreignDenials++
		}
	}
	return j, nil
}

// wantGrade is the grade log of a student of the default course: the
// staging rules of the course (every seventh student from the fourth
// prints a wrong answer, from the sixth does not compile), and the
// cheater and vandal fail every test because their attacks are denied.
func wantGrade(student string, idx, tests int) string {
	var b strings.Builder
	verdict := "pass"
	switch {
	case strings.HasPrefix(student, "zz_"):
		verdict = "fail"
	case idx%7 == 5:
		return "compile-failed\n"
	case idx%7 == 3:
		verdict = "fail"
	}
	b.WriteString("compiled\n")
	for t := range tests {
		fmt.Fprintf(&b, "%s t%03d\n", verdict, t)
	}
	return b.String()
}

// checkGrades compares every grade log with its expected score and
// checks that the cheater's read and the vandal's write were denied in
// this run and the test suite is intact.
func (e *gradeEnv) checkGrades(root string, res *shill.Result) error {
	w := shill.DefaultGrading
	if res.Console != "grading-complete\n" {
		return fmt.Errorf("grader printed %q", clip(res.Console))
	}
	students := []string{"zz_cheater", "zz_vandal"}
	for i := range w.Students {
		students = append(students, fmt.Sprintf("student%03d", i))
	}
	for i, st := range students {
		if got, want := e.m.GradeAt(root, st), wantGrade(st, i-2, w.Tests); got != want {
			return fmt.Errorf("%s graded %q, want %q", st, got, want)
		}
	}
	if got, _ := e.m.ReadFile(root + "/tests/t000"); got != "answer000" {
		return fmt.Errorf("test suite changed: t000 = %q", got)
	}
	var cheat, vandal bool
	for _, d := range res.Denials {
		if d.TraceID != res.TraceID {
			continue
		}
		switch d.Resolve().Object {
		case root + "/submissions":
			cheat = true
		case root + "/tests":
			vandal = true
		}
	}
	if !cheat || !vandal {
		return fmt.Errorf("attack not denied: cheater read denied %v, vandal write denied %v", cheat, vandal)
	}
	return nil
}

// runClosed grades courses on every session back to back until d has
// passed and at least minJobs are done (bounded by 3d).
func (e *gradeEnv) runClosed(ctx context.Context, d time.Duration, minJobs int, idBase int64) ([]gradeJob, time.Duration, error) {
	var (
		mu   sync.Mutex
		jobs []gradeJob
		ferr error
		wg   sync.WaitGroup
	)
	start := time.Now()
	for i := range e.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				mu.Lock()
				el := time.Since(start)
				stop := ferr != nil || el > 3*d || (el > d && len(jobs) >= minJobs)
				mu.Unlock()
				if stop {
					return
				}
				j, err := e.job(ctx, i, idBase+int64(n*len(e.sessions)+i))
				mu.Lock()
				if err != nil {
					ferr = errors.Join(ferr, err)
				} else {
					jobs = append(jobs, j)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, time.Since(start), ferr
}
