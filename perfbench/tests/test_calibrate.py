"""Reference kernel: the yardstick must do the same work on every call."""

from perfbench.calibrate import kernel, kernel_seconds


def test_kernel_does_the_same_work_every_call():
    assert kernel() == kernel()


def test_kernel_seconds_is_a_positive_time():
    assert kernel_seconds() > 0.0
