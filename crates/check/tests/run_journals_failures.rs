//! `Checker::run` on a false property: it panics with the shrunk witness
//! and the replay line, and appends exactly one record to the failure
//! journal. The test has a binary of its own, so pointing
//! `BEVRA_CHECK_DIR` at a scratch directory races no other test.

use bevra_check::persist::{DIR_ENV, FAILURES_FILE};
use bevra_check::runner::REPLAY_ENV;
use bevra_check::{ensure, int_range, Checker};

#[test]
fn run_panics_with_the_shrunk_witness_and_journals_one_record() {
    let dir = std::env::temp_dir().join(format!("bevra-check-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var(DIR_ENV, &dir);
    std::env::remove_var(REPLAY_ENV);

    let checker = Checker::new("ge-17").cases(200).seed(3);
    let property = |&x: &u64| ensure(x < 17, || format!("{x} >= 17"));
    let expected = checker.falsify(&int_range(0, 10_000), property).expect("must falsify");
    assert_eq!(expected.shrunk, "17");

    let panic = std::panic::catch_unwind(|| checker.run(&int_range(0, 10_000), property))
        .expect_err("a false property must panic");
    let message = panic.downcast_ref::<String>().expect("the panic message is formatted");
    let seed = expected.case_seed;
    for part in [
        "property 'ge-17' falsified".to_string(),
        format!("case seed {seed} = {seed:#x}"),
        "eval(s)): 17\n".to_string(),
        "error: 17 >= 17".to_string(),
        format!("replay: {REPLAY_ENV}={seed} reruns exactly this case"),
        format!("record appended to {}", dir.join(FAILURES_FILE).display()),
    ] {
        assert!(message.contains(&part), "{part:?} missing from the panic:\n{message}");
    }

    let journal = std::fs::read_to_string(dir.join(FAILURES_FILE)).expect("the journal exists");
    assert_eq!(journal, format!("{}\n", expected.to_json()), "exactly one record, the shrunk one");
    let _ = std::fs::remove_dir_all(&dir);
}
