"""kernel-identity checker: exact rules at exact lines, and silence."""

from repro.analysis import KernelIdentityChecker

from .conftest import line_of


def rules_at(report):
    return {(f.rule, f.line) for f in report.findings}


class TestKernelIdentityViolations:
    def test_hypot_and_fsum_fire_ki301(self, lint_fixture):
        report, path = lint_fixture("kernel_bad.py", KernelIdentityChecker())
        found = rules_at(report)
        assert ("KI301", line_of(path, "np.hypot(dx, dy)")) in found
        assert ("KI301", line_of(path, "math.fsum(weights)")) in found

    def test_reductions_fire_ki302(self, lint_fixture):
        report, path = lint_fixture("kernel_bad.py", KernelIdentityChecker())
        found = rules_at(report)
        assert ("KI302", line_of(path, "weights.sum()")) in found
        assert ("KI302", line_of(path, "np.add.reduceat")) in found

    def test_marker_comment_opts_function_in(self, lint_fixture):
        report, path = lint_fixture("kernel_bad.py", KernelIdentityChecker())
        assert ("KI302", line_of(path, "np.einsum")) in rules_at(report)

    def test_matmul_in_nested_helper_fires(self, lint_fixture):
        report, path = lint_fixture("kernel_bad.py", KernelIdentityChecker())
        assert ("KI302", line_of(path, "block @ w")) in rules_at(report)

    def test_matmul_smuggled_into_the_pair_kernel_fires(self, lint_fixture):
        """``sts_pairs`` returns floats compared with ``==``: a product
        in place of its left-to-right adds must be reported (the clean
        twin in kernel_ok.py stays silent)."""
        report, path = lint_fixture("kernel_bad.py", KernelIdentityChecker())
        assert ("KI302", line_of(path, "np.matmul(user_terms")) in rules_at(report)

    def test_non_kernel_function_is_exempt(self, lint_fixture):
        report, path = lint_fixture("kernel_bad.py", KernelIdentityChecker())
        exempt_line = line_of(path, "np.hypot(weights, weights)")
        assert not any(f.line == exempt_line for f in report.findings)

    def test_messages_explain_the_rationale(self, lint_fixture):
        report, _ = lint_fixture("kernel_bad.py", KernelIdentityChecker())
        messages = {f.rule: [] for f in report.findings}
        for f in report.findings:
            messages[f.rule].append(f.message)
        assert any("not correctly rounded" in m for m in messages["KI301"])
        assert any("compensated summation" in m for m in messages["KI301"])
        assert all("re-associate" in m for m in messages["KI302"])

    def test_custom_allowlist_overrides_default(self, lint_fixture):
        only_marked = KernelIdentityChecker(functions=frozenset())
        report, path = lint_fixture("kernel_bad.py", only_marked)
        # With an empty allowlist only the marker-comment kernels fire.
        assert ("KI302", line_of(path, "np.einsum")) in rules_at(report)
        assert not any(
            f.line == line_of(path, "np.hypot(dx, dy)")
            for f in report.findings
        )


class TestKernelIdentityCleanCode:
    def test_clean_kernels_produce_nothing(self, lint_fixture):
        report, _ = lint_fixture("kernel_ok.py", KernelIdentityChecker())
        assert report.findings == []

    def test_shipped_kernels_module_is_clean(self):
        import repro.core.kernels as kernels_mod

        from repro.analysis import run_paths

        report = run_paths([kernels_mod.__file__], [KernelIdentityChecker()])
        assert report.findings == []
