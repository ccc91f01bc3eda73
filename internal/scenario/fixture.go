package scenario

import (
	"fmt"
	"sync"

	"repro/shill"
)

// Fixture is a reusable staged environment: a workload plus arbitrary
// extra staging, set up once on a scratch machine and captured as a
// golden image (the PR 8 snapshot machinery). Every leg of every
// scenario that names the fixture boots a private machine restored from
// that one image — N scenarios share one setup cost, and because
// restores mount the image's layers copy-on-write, no scenario can ever
// observe another's writes (fixture_test proves it).
type Fixture struct {
	Name     string
	Workload shill.Workload
	Setup    func(m *shill.Machine) error
}

type fixtureState struct {
	f    Fixture
	once sync.Once
	img  *shill.Image
	err  error
}

var fixtureRegistry struct {
	sync.Mutex
	fixtures map[string]*fixtureState
}

// RegisterFixture adds a fixture. Like Register, it panics on
// duplicates — fixtures are declared in package init.
func RegisterFixture(f Fixture) {
	if f.Name == "" {
		panic("scenario: RegisterFixture: empty name")
	}
	fixtureRegistry.Lock()
	defer fixtureRegistry.Unlock()
	if fixtureRegistry.fixtures == nil {
		fixtureRegistry.fixtures = make(map[string]*fixtureState)
	}
	if _, dup := fixtureRegistry.fixtures[f.Name]; dup {
		panic("scenario: RegisterFixture: duplicate fixture " + f.Name)
	}
	fixtureRegistry.fixtures[f.Name] = &fixtureState{f: f}
}

// FixtureImage returns the fixture's golden image, building and
// snapshotting it on first use (concurrency-safe; the build happens
// once per process).
func FixtureImage(name string) (*shill.Image, error) {
	fixtureRegistry.Lock()
	st := fixtureRegistry.fixtures[name]
	fixtureRegistry.Unlock()
	if st == nil {
		return nil, fmt.Errorf("scenario: unknown fixture %q", name)
	}
	st.once.Do(func() {
		m, err := shill.NewMachine(shill.WithWorkload(st.f.Workload))
		if err != nil {
			st.err = fmt.Errorf("scenario: fixture %s: %w", name, err)
			return
		}
		defer m.Close()
		if st.f.Setup != nil {
			if err := st.f.Setup(m); err != nil {
				st.err = fmt.Errorf("scenario: fixture %s setup: %w", name, err)
				return
			}
		}
		st.img, st.err = m.Snapshot()
	})
	return st.img, st.err
}

// boot builds the machine one leg runs on: a restore from the
// scenario's fixture image, or a bare machine when it declares none.
func boot(sc *Scenario) (*shill.Machine, error) {
	if sc.Fixture == "" {
		return shill.NewMachine()
	}
	img, err := FixtureImage(sc.Fixture)
	if err != nil {
		return nil, err
	}
	return shill.RestoreMachine(img)
}
