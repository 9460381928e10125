//! Flag parsing shared by the four reporting binaries.
//!
//! They follow one contract — `--flag value` or `--flag=value` forms,
//! valueless flags reject an inline `=value`, and any parse error prints
//! the binary's usage text and exits 2 (pinned by CI's unknown-flag
//! smoke). A binary's flag loop is one `match` on [`Flag::name`] whose
//! arms are [`FlagParser::parsed`] (a value), [`FlagParser::switch`] (no
//! value), [`FlagParser::help`] and [`FlagParser::unknown`].

/// One parsed command-line flag: its name and the optional inline
/// `=value` payload.
#[derive(Debug, Clone)]
pub struct Flag {
    /// The flag name (up to the `=`, if any).
    pub name: String,
    /// The argument exactly as given (for error messages).
    pub raw: String,
    inline: Option<String>,
}

/// An iterator-style parser over `argv` with the shared error contract.
#[derive(Debug)]
pub struct FlagParser<'a> {
    usage: &'static str,
    iter: std::slice::Iter<'a, String>,
}

impl<'a> FlagParser<'a> {
    /// Parses `args` (without the program name), reporting errors against
    /// `usage`.
    #[must_use]
    pub fn new(usage: &'static str, args: &'a [String]) -> Self {
        FlagParser { usage, iter: args.iter() }
    }

    /// Prints `message` plus the usage text and exits 2.
    pub fn usage_error(&self, message: &str) -> ! {
        eprintln!("error: {message}\n\n{}", self.usage);
        std::process::exit(2)
    }

    /// The next flag, split into name and optional inline value.
    pub fn next_flag(&mut self) -> Option<Flag> {
        let arg = self.iter.next()?;
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name.to_string(), Some(value.to_string())),
            None => (arg.clone(), None),
        };
        Some(Flag { name, raw: arg.clone(), inline })
    }

    /// The flag's value: inline (`--flag=v`) or the next argument
    /// (`--flag v`). Missing values are a usage error (`what` describes
    /// the expected shape).
    pub fn value(&mut self, flag: &Flag, what: &str) -> String {
        flag.inline.clone().or_else(|| self.iter.next().cloned()).unwrap_or_else(|| {
            self.usage_error(&format!("{} requires a value ({what})", flag.name));
        })
    }

    /// The flag's value parsed as a `T` that `accept` admits; anything
    /// else is a usage error.
    pub fn parsed<T: std::str::FromStr>(
        &mut self,
        flag: &Flag,
        what: &str,
        accept: impl Fn(&T) -> bool,
    ) -> T {
        let value = self.value(flag, what);
        value.parse().ok().filter(accept).unwrap_or_else(|| {
            self.usage_error(&format!("invalid {} value: {value:?} (want {what})", flag.name));
        })
    }

    /// A valueless flag was given: `true`, after rejecting an inline
    /// `=value` (`--quick=false` must fail loudly, not silently discard
    /// the payload).
    pub fn switch(&self, flag: &Flag) -> bool {
        if flag.inline.is_some() {
            self.usage_error(&format!("{} does not take a value (got {:?})", flag.name, flag.raw));
        }
        true
    }

    /// `--help`: prints the usage text and exits 0.
    pub fn help(&self) -> ! {
        print!("{}", self.usage);
        std::process::exit(0)
    }

    /// Any flag the binary does not know: a usage error.
    pub fn unknown(&self, flag: &Flag) -> ! {
        self.usage_error(&format!("unknown flag: {:?}", flag.raw))
    }
}
