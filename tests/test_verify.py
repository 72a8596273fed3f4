import pytest

from agtaut import verify


def test_eisenstein_identity_names_the_first_bad_case(monkeypatch):
    # One wrong totient value, J_4(7), breaks the convolution identity first
    # at genus 3 (k = 2g - 2 = 4) and degree 7; the suite must name that case.
    real = verify.jacobi_totient_table

    def table_with_bad_j4_at_7(k, N):
        table = real(k, N)
        if k == 4:
            table[7 - 1] += 1
        return table

    monkeypatch.setattr(verify, "jacobi_totient_table", table_with_bad_j4_at_7)
    with pytest.raises(verify.VerificationFailure) as failure:
        verify.check_eisenstein_identity()
    assert failure.value.context == "convolution identity at g=3, d=7"
