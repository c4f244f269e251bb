//! Untraced benchmark binary: end-to-end metrics, no instrumentation.

fn main() -> std::process::ExitCode {
    perfbench::main_with(None)
}
