fn main() -> std::process::ExitCode {
    coruscant_benchmark::cli::main(std::env::args().skip(1).collect())
}
