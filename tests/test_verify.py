from shipat import verify


def test_pool_matches_serial():
    serial = verify.run_suite("all", n_max=4, jobs=1)
    assert verify.run_suite("all", n_max=4, jobs=2) == serial
    assert all(result.ok for result in serial)
