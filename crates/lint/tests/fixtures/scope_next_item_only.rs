// Fixture: a suppression covers the next item ONLY — the second fn's
// `.lock()` must still fire. Linted under a pretend obs record-path rel
// path; never compiled.

// adcast-lint: allow(no-lock-in-record) -- fixture: only `covered` is exempt
fn covered(state: &Shared) -> u64 {
    *state.lock()
}

fn uncovered(state: &Shared) -> u64 {
    *state.lock()
}
