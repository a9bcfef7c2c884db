// Lint fixture: raw std sync/thread primitives in library code (no-raw-sync).

pub fn bad() {
    let mutex = std::sync::Mutex::new(0u32);
    let (tx, rx) = std::sync::mpsc::channel::<u8>();
    let handle = std::thread::spawn(move || drop(tx));
    let rwlock = std::sync::RwLock::new(0u32);
    drop((mutex, rx, handle, rwlock));
}

use std::sync::{Arc, Mutex as StdMutex};

pub fn decoys(guard: &std::sync::MutexGuard<'_, u32>, read: &std::sync::RwLockReadGuard<'_, u32>) {
    let barrier = std::sync::Barrier::new(2);
    let in_string = "std::sync::Mutex is only mentioned here";
    // std::thread::spawn in a comment is also fine.
    drop((barrier, in_string));
    let _ = (guard, read);
}

pub fn justified() {
    // lint:allow(no-raw-sync): fixture-local escape hatch
    let mutex = std::sync::Mutex::new(1u32);
    drop(mutex);
}

#[cfg(test)]
mod tests {
    pub fn in_tests() {
        let mutex = std::sync::Mutex::new(0u32);
        drop(mutex);
    }
}
