from groups import abelianization_is_trivial, enumerate_cosets, smith_diagonal


def test_smith_diagonal_identity():
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]


def test_smith_diagonal_torsion():
    # Z^2 / <(2,0),(0,3)> has invariant factors 1..6 after reduction
    diag = smith_diagonal([[2, 0], [0, 3]])
    assert sorted(diag) == [2, 3]


def test_abelianization_trivial_cases():
    assert abelianization_is_trivial([[1]], 1)
    assert not abelianization_is_trivial([[2]], 1)  # Z/2
    assert not abelianization_is_trivial([], 1)  # free of rank 1
    assert abelianization_is_trivial([], 0)
    # two generators, relations a = b and b = 1
    assert abelianization_is_trivial([[1, -1], [0, 1]], 2)


def test_enumerate_cosets_known_orders():
    # trivial group <a | a>
    assert enumerate_cosets(1, [(0,)]) == 1
    # Z/5 = <a | a^5>
    assert enumerate_cosets(1, [(0, 0, 0, 0, 0)]) == 5
    # S3 = <a, b | a^2, b^2, (ab)^3>
    s3 = enumerate_cosets(2, [(0, 0), (2, 2), (0, 2, 0, 2, 0, 2)])
    assert s3 == 6
    # free group Z never closes: bounded out
    assert enumerate_cosets(1, [], max_cosets=100) is None


def test_enumerate_cosets_collapse_with_inverses():
    # <a, b | a b^-1, b> is trivial
    assert enumerate_cosets(2, [(0, 3), (2,)]) == 1
