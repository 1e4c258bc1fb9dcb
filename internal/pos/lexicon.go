package pos

// Closed-class lexicons. These word lists are the backbone of the tagger:
// English closed classes are small and stable, so enumerating them gives
// high-precision tags for exactly the words the communication-means
// annotator cares most about (pronouns, auxiliaries, modals, negators,
// wh-words). The lists are the source; the tagger reads them through
// lexicon, one map built from all of them at init (see buildLexicon).

var pronounFirst = []string{
	"i", "we", "me", "us", "my", "our", "mine", "ours", "myself", "ourselves",
	"i'm", "i've", "i'd", "i'll", "we're", "we've", "we'd", "we'll",
}

var pronounSecond = []string{
	"you", "your", "yours", "yourself", "yourselves",
	"you're", "you've", "you'd", "you'll",
}

var pronounThird = []string{
	"he", "she", "it", "they", "him", "her", "them", "his", "hers", "its",
	"their", "theirs", "himself", "herself", "itself", "themselves", "one",
	"someone", "anyone", "everyone", "somebody", "anybody", "everybody",
	"something", "anything", "everything", "nothing", "nobody",
	"he's", "she's", "it's", "they're", "they've", "they'd", "they'll",
	"he'd", "she'd", "he'll", "she'll", "it'll",
}

var modals = []string{
	"will", "would", "shall", "should", "can", "could", "may", "might",
	"must", "ought", "wo", "'ll", "'d", "won't", "wouldn't", "shouldn't",
	"can't", "cannot", "couldn't", "mustn't", "mightn't", "shan't",
}

// Auxiliary and copular verb forms with their tense classification.
var auxPresent = []string{
	"am", "is", "are", "do", "does", "has", "have", "'s", "'re", "'m", "'ve",
	"isn't", "aren't", "don't", "doesn't", "hasn't", "haven't", "ain't",
}

var auxPast = []string{
	"was", "were", "did", "had", "wasn't", "weren't", "didn't", "hadn't",
}

// beForms are the forms of "to be"; they matter for passive detection.
var beForms = []string{
	"be", "am", "is", "are", "was", "were", "been", "being",
	"'s", "'re", "'m", "isn't", "aren't", "wasn't", "weren't", "ain't",
}

// getForms participate in the colloquial "get"-passive ("got installed").
var getForms = []string{"get", "gets", "got", "gotten", "getting"}

var determiners = []string{
	"the", "a", "an", "this", "that", "these", "those", "each", "every",
	"either", "neither", "some", "any", "no", "all", "both", "such",
	"another", "other",
}

var prepositions = []string{
	"in", "on", "at", "by", "for", "with", "about", "against", "between",
	"into", "through", "during", "before", "after", "above", "below", "to",
	"from", "up", "down", "of", "off", "over", "under", "again", "further",
	"since", "until", "while", "because", "although", "though", "unless",
	"whether", "if", "as", "than", "via", "per", "without", "within",
	"despite", "upon", "onto", "toward", "towards", "across", "around",
	"behind", "beside", "near", "inside", "outside",
}

var conjunctions = []string{"and", "but", "or", "nor", "yet", "so", "plus"}

var whWords = []string{
	"what", "which", "who", "whom", "whose", "when", "where", "why", "how",
	"what's", "who's", "where's", "how's", "when's", "why's",
}

// commonAdjectives: open class, but a seed list of high-frequency forum
// adjectives sharpens tagging where suffix rules are silent.
var commonAdjectives = []string{
	"good", "bad", "new", "old", "great", "small", "large", "big", "high",
	"low", "long", "short", "right", "wrong", "same", "different", "next",
	"last", "first", "second", "third", "few", "many", "much", "more",
	"most", "less", "least", "own", "full", "empty", "free", "hard", "easy",
	"nice", "fine", "poor", "main", "extra", "sure", "able", "best", "worst",
	"better", "worse", "clean", "dirty", "quiet", "loud", "cheap",
	"expensive", "slow", "fast", "hot", "cold", "warm", "cool", "cooler",
	"ok", "okay", "several", "available", "possible", "impossible", "entire",
	"whole", "partial", "brilliant", "adequate", "technical", "official",
	"pre-installed", "wireless", "wrongful", "comfortable", "friendly",
	"helpful", "modern", "spacious", "dirty", "noisy", "central", "overall",
}

// commonAdverbs: seed list for the same reason.
var commonAdverbs = []string{
	"very", "too", "also", "just", "only", "here", "there", "now", "then",
	"always", "often", "sometimes", "usually", "already", "still", "yet",
	"again", "once", "twice", "soon", "later", "well", "even", "almost",
	"quite", "rather", "maybe", "perhaps", "however", "anyway", "instead",
	"together", "away", "back", "forward", "online", "offline", "anymore",
	"everywhere", "somewhere", "definitely", "probably", "recently",
	"yesterday", "today", "tomorrow", "voila",
}

// commonNouns that look like verbs or adjectives to the suffix rules and
// appear constantly in forum text.
var commonNouns = []string{
	"thing", "things", "time", "times", "way", "problem", "problems",
	"issue", "issues", "question", "questions", "answer", "answers", "help",
	"system", "systems", "computer", "computers", "drive", "drives", "disk",
	"disks", "disc", "discs", "controller", "printer", "printers", "laptop",
	"laptops", "screen", "screens", "error", "errors", "site", "website",
	"person", "people", "friend", "friends", "boss", "department", "place",
	"room", "rooms", "hotel", "hotels", "staff", "location", "price",
	"prices", "breakfast", "view", "pool", "beach", "night", "nights",
	"day", "days", "week", "weeks", "month", "months", "year", "years",
	"code", "programming", "function", "functions", "method", "methods",
	"class", "classes", "server", "servers", "database", "databases",
	"file", "files", "folder", "version", "versions", "update", "updates",
	"setting", "settings", "knowledge", "activity", "performance", "user",
	"users", "idea", "solution", "solutions", "replacement", "support",
	"configuration", "distribution", "replication", "information", "calls",
	"call", "luck", "min", "web",
}

// baseVerbs seed the open verb class: frequent forum verbs in base form.
// Inflected forms are derived by the morphology rules in tagger.go, which
// is why this list is also kept as a set of its own.
var baseVerbs = set(
	"have", "do", "go", "get", "make", "know", "think", "see", "come",
	"want", "use", "find", "give", "tell", "work", "call", "try", "ask",
	"need", "seem", "help", "show", "move", "play", "run", "turn", "start",
	"stop", "look", "install", "download", "upload", "boot", "reboot",
	"restart", "configure", "connect", "disconnect", "upgrade", "update",
	"fix", "repair", "replace", "remove", "add", "delete", "format",
	"reformat", "rebuild", "build", "compile", "write", "read", "print",
	"scan", "click", "type", "open", "close", "save", "load", "buy",
	"suggest", "recommend", "book", "stay", "visit", "travel", "arrive",
	"leave", "check", "enjoy", "like", "love", "hate", "prefer", "expect",
	"hope", "wish", "wonder", "believe", "suppose", "manage", "fail",
	"succeed", "happen", "occur", "appear", "degrade", "improve", "perform",
	"crash", "freeze", "hang", "blink", "flash", "return", "send", "receive",
	"post", "reply", "answer", "search", "browse", "wait", "pay", "cost",
	"spend", "keep", "let", "put", "set", "say", "mean", "feel", "hear",
	"speak", "bring", "frustrate", "describe", "explain", "mention",
	"report", "state", "declare", "judge", "rate", "review", "complain",
	"thank", "appreciate", "apologize", "solve", "resolve", "debug", "test",
	"deploy", "refactor", "implement", "throw", "catch", "parse", "render",
	"invoke", "import", "export", "merge", "commit", "push", "pull",
)

func set(words ...string) map[string]bool {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

// formWords holds the forms of every word that has one. A negation is
// also any word ending in "n't" (a contracted auxiliary, or "n't" itself),
// which forms tests by its suffix.
var formWords = func() map[string]Form {
	m := make(map[string]Form)
	add := func(f Form, words ...string) {
		for _, w := range words {
			m[w] |= f
		}
	}
	add(FormTo, "to")
	add(FormHave, "have", "has", "had", "having", "'ve", "haven't", "hasn't", "hadn't")
	add(FormBeGet, beForms...)
	add(FormBeGet, getForms...)
	add(FormNegation, "not", "no", "never", "none", "nothing", "nobody", "nowhere",
		"neither", "nor", "cannot", "without", "hardly", "barely", "scarcely")
	add(FormFuture, "will", "shall", "'ll", "won't", "shan't", "gonna")
	add(FormWh, whWords...)
	add(FormPastAux, auxPast...)
	add(FormPerfectAux, "have", "has", "'ve", "haven't", "hasn't")
	add(FormGoing, "going", "gonna")
	add(FormInverts, "do", "does", "did", "can", "could", "would", "will", "should",
		"is", "are", "was", "were", "have", "has", "had", "may", "might")
	add(FormClauseBreak, ",", ";")
	return m
}()

// lexicon is the context-free tag of every word any list above (or an
// irregular-verb table) knows, so tagging a word costs one hash and an
// unknown word falls straight through to the morphology rules.
var lexicon = buildLexicon()

// buildLexicon folds the word lists into one map. A word on several lists
// ("have": auxiliary and base verb; "help": noun and base verb; "read":
// irregular past and base verb) takes the tag of the list named first
// here, so this order is the tagger's precedence and reordering it changes
// tags. The negated contractions need no rule of their own: they occur
// only in modals, auxPast and auxPresent.
func buildLexicon() map[string]Tag {
	lex := make(map[string]Tag, 1024)
	add := func(t Tag, words ...string) {
		for _, w := range words {
			if _, taken := lex[w]; !taken {
				lex[w] = t
			}
		}
	}
	add(PronounFirst, pronounFirst...)
	add(PronounSecond, pronounSecond...)
	add(PronounThird, pronounThird...)
	add(Modal, modals...)
	add(WhWord, whWords...)
	add(Particle, "not")
	add(VerbPast, auxPast...)
	add(VerbPresent, auxPresent...)
	add(VerbBase, "be")
	add(VerbPastPart, "been", "being")
	add(Determiner, determiners...)
	add(Conjunction, conjunctions...)
	add(Preposition, prepositions...)
	add(Noun, commonNouns...)
	add(Adverb, commonAdverbs...)
	add(Adjective, commonAdjectives...)
	for w := range irregularPast {
		add(VerbPast, w)
	}
	for w := range irregularPart {
		add(VerbPastPart, w)
	}
	for w := range baseVerbs {
		add(VerbPresent, w) // finite by default; repair demotes to base form
	}
	return lex
}
