// Fixture: unwrap/expect in library code, on a lock guard too, must fire no-unwrap-in-lib.

pub fn head(v: &[u64]) -> u64 {
    *v.first().unwrap()
}

pub fn named(v: &[u64]) -> u64 {
    *v.first().expect("caller guarantees non-empty")
}

pub fn locked(m: &std::sync::Mutex<u64>) -> u64 {
    *m.lock().unwrap()
}

pub fn locked_named(m: &std::sync::Mutex<u64>) -> u64 {
    *m.lock().expect("no holder panicked")
}
