//! Fixture: the correct ladder order — log, commit, then apply — passes
//! without any pragma.

fn replica_append(d: &mut Wal, entries: &[Record]) -> Result<u64, WalError> {
    for r in entries {
        d.log_encoded(r)?;
    }
    d.commit()?;
    for r in entries {
        apply_record(d, r)?;
    }
    Ok(d.next_lsn())
}
