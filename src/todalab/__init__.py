"""Numerical laboratory for the SU(N+1) Toda system, a coupled mean-field system.

The public names below are resolved on first access (PEP 562), so
`import todalab` loads no submodule and a command imports only the
modules it runs.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "bubbles": (
            "BubbleParams",
            "SlopeFit",
            "asymptotic_slope_table",
            "bubble_quantities",
            "fit_slopes",
            "standard_bubble",
        ),
        "cartan": (
            "cartan_su",
            "cartan_su_inverse",
            "lower_bound_condition",
        ),
        "cli": ("emit_identity_suite", "main"),
        "closed_form": (
            "MassReport",
            "RadialProfile",
            "check_mass_relation",
            "masses_and_exponents",
            "radial_profile",
            "write_solution_csv",
        ),
        "functional": (
            "EnergyBreakdown",
            "MultiField",
            "energy",
            "energy_gradient",
            "euler_lagrange_residuals",
            "precondition_gradient",
            "v_from_u",
        ),
        "grid": (
            "GridSpec",
            "ScalarField",
            "inverse_laplacian",
            "laplacian",
            "random_smooth_field",
        ),
        "minimizer": (
            "MinimizeConfig",
            "MinimizeReport",
            "classify_boundedness",
            "detect_concentration",
            "minimize",
            "sweep",
            "write_region_csv",
        ),
        "pohozaev": ("DiskBalance", "disk_balance", "radius_scan", "write_balance_csv"),
        "radial": (
            "BlowUpError",
            "ball_pohozaev",
            "integrate_radial",
            "sweep_shooting",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def _lazy_getattr(namespace: dict, table: dict):
    """A module __getattr__ (PEP 562) over table, name -> submodule here.

    It imports the submodule on first access to a name and keeps the value
    in namespace, the module's globals, so later lookups find it there.
    """

    def __getattr__(name: str):
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        # __import__ rather than importlib.import_module: -X importtime sees it
        value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _EXPORTS)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
