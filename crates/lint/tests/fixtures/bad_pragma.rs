// Fixture: an allow() without the mandatory `-- <reason>` is itself a
// diagnostic AND suppresses nothing — the `.lock()` below must still fire.
// Linted under a pretend obs record-path rel path; never compiled.

// adcast-lint: allow(no-lock-in-record)
fn record(state: &Shared) -> u64 {
    *state.lock()
}
