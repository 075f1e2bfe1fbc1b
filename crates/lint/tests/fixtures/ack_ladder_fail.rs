//! Fixture: the follower applies before committing. The `ack-ladder` for
//! `replica_append` (log_encoded -> commit -> apply_record) must fire once, on the
//! out-of-order `apply_record`.

fn replica_append(d: &mut Wal, entries: &[Record]) -> Result<u64, WalError> {
    for r in entries {
        d.log_encoded(r)?;
    }
    for r in entries {
        apply_record(d, r)?;
    }
    d.commit()?;
    Ok(d.next_lsn())
}
