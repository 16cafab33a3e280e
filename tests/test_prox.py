import numpy as np
import pytest
from oracle_utils import slab_coefficients_oracle, slab_oracle, soft_oracle, sphere_oracle
from tvclust.prox import prox_conjugate, prox_slab, prox_sphere, soft_threshold


class TestProxSphere:
    def test_already_on_sphere(self):
        z = np.ones(4)
        assert np.allclose(prox_sphere(z), z, atol=1e-15)

    def test_radial_scaling(self):
        assert np.allclose(prox_sphere(np.array([2.0, 0.0])), [np.sqrt(2.0), 0.0])

    def test_norm_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.standard_normal(6) * rng.uniform(0.01, 100)
            out = prox_sphere(z)
            assert float(out @ out) == pytest.approx(6.0, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            prox_sphere(np.zeros(3))

    def test_matches_radial_search_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = rng.standard_normal(3) * rng.uniform(0.1, 10)
            assert np.abs(prox_sphere(z) - sphere_oracle(z)).max() < 1e-6


class TestProxSlab:
    def test_feasible_point_unchanged(self):
        z = np.array([1.0, -1.0, 2.0, -2.0])
        out = prox_slab(z, np.ones(4), 0.5)
        assert np.array_equal(out, z)

    def test_hand_projection(self):
        out = prox_slab(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.0)
        assert np.allclose(out, [0.0, 0.0], atol=1e-15)

    def test_output_feasible(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rng.standard_normal(4) * 5
            v = rng.standard_normal(4)
            eps = float(rng.uniform(0, 0.5))
            out = prox_slab(z, v, eps)
            assert abs(float(out @ v)) <= eps + 1e-12

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rng.standard_normal(4) * 3
            v = rng.standard_normal(4)
            eps = float(rng.uniform(0.0, 0.3))
            assert np.abs(prox_slab(z, v, eps) - slab_oracle(z, v, eps)).max() < 1e-8

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            prox_slab(np.ones(3), np.zeros(3), 0.1)


class TestSoftThreshold:
    def test_zero_input(self):
        assert np.array_equal(soft_threshold(np.zeros(3), 1.0), np.zeros(3))

    def test_zero_threshold_is_identity(self):
        z = np.array([0.3, -2.0, 5.0])
        assert np.array_equal(soft_threshold(z, 0.0), z)

    def test_hand_values(self):
        out = soft_threshold(np.array([2.5, -0.5]), 1.0)
        assert np.allclose(out, [1.5, 0.0], atol=1e-15)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), -0.1)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            z = rng.standard_normal(int(rng.integers(2, 6))) * 3
            tau = float(rng.uniform(0, 2))
            assert np.abs(soft_threshold(z, tau) - soft_oracle(z, tau)).max() < 1e-6


class TestProxConjugate:
    def test_l1_conjugate_clips(self):
        alpha = 1.7
        z = np.array([0.5 * alpha, -3.0 * alpha, 10.0])
        out = prox_conjugate(lambda y, tau: soft_threshold(y, tau * alpha), 2.3, z)
        assert np.allclose(out, np.clip(z, -alpha, alpha), atol=1e-12)

    def test_fixes_zero(self):
        out = prox_conjugate(lambda y, tau: soft_threshold(y, tau), 0.7, np.zeros(4))
        assert np.allclose(out, np.zeros(4), atol=1e-15)

    def test_moreau_decomposition_l1(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = rng.standard_normal(5) * 4
            gamma = float(rng.uniform(0.1, 5))
            alpha = float(rng.uniform(0.1, 3))
            tau = gamma * alpha
            x = soft_threshold(z, tau)
            # conjugate prox of the scaled function tau*||.||_1 via an unrelated gamma
            y = prox_conjugate(
                lambda w, s: soft_threshold(w, s * tau), float(rng.uniform(0.5, 2)), z
            )
            assert np.abs(x + y - z).max() <= 1e-12

    def test_moreau_decomposition_slab(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(5)
        for _ in range(100):
            z = rng.standard_normal(5) * 4
            eps = float(rng.uniform(0.0, 0.4))
            x = prox_slab(z, v, eps)
            y = prox_conjugate(lambda w, s: prox_slab(w, v, eps), 1.0, z)
            assert np.abs(x + y - z).max() <= 1e-12

    def test_l1_closed_form_is_clip(self):
        """The temporal dual step: clip(z, -alpha, alpha) is the conjugate prox of alpha*l1."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = rng.standard_normal(8) * rng.uniform(0.01, 100)
            gamma = float(rng.uniform(0.01, 20))
            alpha = float(rng.choice([0.0, rng.uniform(0.01, 30)]))
            want = prox_conjugate(lambda y, tau: soft_threshold(y, tau * alpha), gamma, z)
            got = np.clip(z, -alpha, alpha)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(z)))

    @pytest.mark.parametrize("n_dirs", [1, 2, 3])
    @pytest.mark.parametrize(
        "eps", [0.0, 1e-6 * np.sqrt(6), 0.3, 50.0], ids=["0", "1e-6rootn", "0.3", "50"]
    )
    def test_slab_closed_form_matches_composition(self, n_dirs, eps):
        """The slab dual step: for z = D1 + gamma * u with D1 = sum_l d_l v_l, the
        conjugate prox of the sequential slab projections is gamma * sum_l c_l v_l,
        c the soft-thresholded components of z / gamma, got from u, d and the
        Gram matrix alone."""
        rng = np.random.default_rng(8 + n_dirs)
        t_len, n = 12, 6
        # directions neither orthogonal nor of unit length
        V = rng.standard_normal((t_len, n_dirs, n)) * rng.uniform(0.3, 3, (t_len, n_dirs, 1))
        V[:, 1:] += 0.5 * V[:, :1]
        G = np.einsum("tln,tmn->tlm", V, V)
        Vsq = np.einsum("tln,tln->tl", V, V)
        # frame scales from 1e-8 to 1000, and a zero frame, so that frames lie both
        # inside and outside their slabs
        scale = np.logspace(-8, 3, t_len)[:, None]
        scale[0] = 0.0
        u = rng.standard_normal((t_len, n)) * scale
        for gamma in (0.05, 1.0, 7.0):
            d = rng.standard_normal((t_len, n_dirs)) * scale * gamma
            z = np.einsum("tl,tln->tn", d, V) + gamma * u
            s = np.einsum("tn,tln->tl", u, V) + np.einsum("tm,tml->tl", d, G) / gamma
            got = np.einsum("tl,tln->tn", gamma * slab_coefficients_oracle(s, G, Vsq, eps), V)

            def project_slabs(y, tau):
                out = np.array(y)
                for t in range(t_len):
                    for l in range(n_dirs):
                        out[t] = prox_slab(out[t], V[t, l], eps)
                return out

            want = prox_conjugate(project_slabs, gamma, z)
            tol = 1e-12 * np.maximum(1.0, np.abs(z).max(axis=1, keepdims=True))
            assert np.all(np.abs(got - want) <= tol)
            inside = np.abs(np.einsum("tn,tn->t", z / gamma, V[:, 0])) <= eps
            assert inside.any() and (eps == 0.0 or not inside.all())

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            prox_conjugate(lambda y, tau: y, 0.0, np.ones(2))
