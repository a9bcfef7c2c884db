// Lint fixture: thread starts outside the runtime's rank spawn (no-raw-sync).

pub fn bad() {
    std::thread::scope(|s| drop(s));
    let builder = std::thread::Builder::new().name("worker".into());
    drop(builder);
}

use std::thread::{scope, Builder as ThreadBuilder};
use std::thread::{self, spawn};

pub fn decoys(handle: std::thread::ScopedJoinHandle<'_, ()>) {
    let here = std::thread::current();
    let cores = std::thread::available_parallelism();
    let in_string = "std::thread::scope is only mentioned here";
    // std::thread::Builder in a comment is also fine.
    drop((handle, here, cores, in_string));
}

use std::thread::{current, JoinHandle};

pub fn justified() {
    // lint:allow(no-raw-sync): fixture-local escape hatch
    std::thread::scope(|s| drop(s));
}

#[cfg(test)]
mod tests {
    pub fn in_tests() {
        std::thread::scope(|s| drop(s));
    }
}
